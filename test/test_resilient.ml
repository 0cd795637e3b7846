(* The resilient execution layer: budgets, deadlines, fault injection,
   and graceful degradation (chaos harness).

   The differential tests are the heart: a seeded chaos run with enough
   retry budget must produce byte-for-byte the fault-free answer — same
   members, same candidates, same database probe count — because retries
   never re-execute a probe body and failed attempts never reach the
   engine.  Seeds and rates come from CHAOS_SEED / CHAOS_FAULT_RATE so
   CI can sweep a matrix without touching the code. *)

open Relational
open Entangled
open Helpers

let chaos_seed =
  match int_of_string_opt (try Sys.getenv "CHAOS_SEED" with Not_found -> "")
  with
  | Some s -> s
  | None -> 42

let chaos_rate =
  match
    float_of_string_opt (try Sys.getenv "CHAOS_FAULT_RATE" with Not_found -> "")
  with
  | Some r when r >= 0.0 && r < 1.0 -> r
  | Some _ | None -> 0.3

(* Transient faults only, effectively unlimited retries: every probe
   eventually succeeds, so degradation must never trigger. *)
let chaos_config =
  {
    Resilient.default_config with
    max_attempts = 1000;
    faults =
      Some
        {
          Resilient.fault_defaults with
          fault_seed = chaos_seed;
          transient_rate = chaos_rate;
        };
  }

let with_guard db cfg f =
  let g = Resilient.arm cfg in
  Database.set_guard db (Some g);
  Fun.protect
    ~finally:(fun () -> Database.set_guard db None)
    (fun () -> f g)

(* --------------------------- Guard units -------------------------- *)

let no_tuples () = 0

let expect_abort expected f =
  match f () with
  | _ -> Alcotest.failf "expected abort: %s" (Resilient.error_to_string expected)
  | exception Resilient.Abort e ->
    Alcotest.(check string)
      "abort reason"
      (Resilient.error_to_string expected)
      (Resilient.error_to_string e)

let test_probe_budget () =
  let g = Resilient.arm { Resilient.default_config with max_probes = Some 2 } in
  let hits = ref 0 in
  let probe () = Resilient.probe g ~tuples_scanned:no_tuples (fun () -> incr hits) in
  probe ();
  probe ();
  expect_abort (Resilient.Budget_exhausted Resilient.Max_probes) probe;
  Alcotest.(check int) "body ran exactly twice" 2 !hits;
  let u = Resilient.usage g in
  Alcotest.(check int) "attempts" 2 u.attempts;
  Alcotest.(check int) "ok" 2 u.probes_ok

let test_tuple_budget () =
  let g = Resilient.arm { Resilient.default_config with max_tuples = Some 5 } in
  let scanned = ref 0 in
  let probe () =
    Resilient.probe g ~tuples_scanned:(fun () -> !scanned) (fun () -> ())
  in
  probe ();
  (* The budget meters the delta from the first guarded probe. *)
  scanned := 10;
  expect_abort (Resilient.Budget_exhausted Resilient.Max_tuples) probe

let test_deadline () =
  let g = Resilient.arm { Resilient.default_config with deadline_ns = Some 0L } in
  expect_abort (Resilient.Budget_exhausted Resilient.Deadline) (fun () ->
      Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ()))

let test_permanent_fault () =
  let g =
    Resilient.arm
      {
        Resilient.default_config with
        faults =
          Some
            {
              Resilient.fault_defaults with
              transient_rate = 0.0;
              permanent_rate = 1.0;
            };
      }
  in
  expect_abort
    (Resilient.Probe_failed { attempts = 1; permanent = true })
    (fun () -> Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ()))

let test_retries_exhausted () =
  let g =
    Resilient.arm
      {
        Resilient.default_config with
        max_attempts = 3;
        faults =
          Some { Resilient.fault_defaults with transient_rate = 1.0 };
      }
  in
  let ran = ref false in
  expect_abort
    (Resilient.Probe_failed { attempts = 3; permanent = false })
    (fun () ->
      Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ran := true));
  Alcotest.(check bool) "body never ran" false !ran;
  let u = Resilient.usage g in
  Alcotest.(check int) "three attempts" 3 u.attempts;
  Alcotest.(check int) "two retries" 2 u.retries;
  Alcotest.(check bool) "backoff charged" true (u.backoff_ns > 0L)

let test_injected_timeout_retries () =
  let g =
    Resilient.arm
      {
        Resilient.default_config with
        max_attempts = 3;
        probe_timeout_ns = Some 1_000L;
        faults =
          Some
            {
              Resilient.fault_defaults with
              latency_rate = 1.0;
              latency_ns = 2_000L;
            };
      }
  in
  expect_abort
    (Resilient.Probe_failed { attempts = 3; permanent = false })
    (fun () -> Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ()));
  let u = Resilient.usage g in
  Alcotest.(check int) "every attempt timed out" 3 u.injected_timeouts;
  Alcotest.(check bool) "latency charged against the deadline" true
    (u.injected_latency_ns >= 6_000L)

let test_injector_deterministic () =
  let run () =
    let g =
      Resilient.arm
        {
          chaos_config with
          faults =
            Some
              {
                Resilient.fault_defaults with
                fault_seed = chaos_seed;
                transient_rate = 0.5;
              };
        }
    in
    for _ = 1 to 50 do
      Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ())
    done;
    Resilient.usage g
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same attempts" a.attempts b.attempts;
  Alcotest.(check int) "same retries" a.retries b.retries;
  Alcotest.(check int) "same faults" a.transient_faults b.transient_faults;
  Alcotest.(check int64) "same backoff schedule" a.backoff_ns b.backoff_ns

(* ----------------------- Differential chaos ----------------------- *)

let members_of = function
  | None -> []
  | Some s -> s.Solution.members

(* A safe+unique pair over the shared flights store: A and B must agree
   on a Zurich flight. *)
let zurich_pair tag =
  [
    Query.make
      ~name:(tag ^ "_a")
      ~post:[ atom "R" [ cs (tag ^ "B"); var "x" ] ]
      ~head:[ atom "R" [ cs (tag ^ "A"); var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ];
    Query.make
      ~name:(tag ^ "_b")
      ~post:[ atom "R" [ cs (tag ^ "A"); var "y" ] ]
      ~head:[ atom "R" [ cs (tag ^ "B"); var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ];
  ]

(* Fault-free vs seeded-chaos run of the same solver on the same
   workload: answers and probe counts must be identical. *)
let check_differential name solve =
  let plain = solve None in
  let chaos = solve (Some chaos_config) in
  let members, probes, degraded = plain and members', probes', degraded' = chaos in
  Alcotest.(check (list int)) (name ^ ": same members") members members';
  Alcotest.(check int) (name ^ ": same db probes") probes probes';
  Alcotest.(check bool) (name ^ ": fault-free not degraded") false degraded;
  Alcotest.(check bool) (name ^ ": chaos run not degraded") false degraded'

let guarded db cfg f =
  match cfg with
  | None -> f ()
  | Some cfg -> with_guard db cfg (fun _ -> f ())

let test_differential_scc () =
  check_differential "scc" (fun cfg ->
      let db = Database.create () in
      let queries = figure1_queries db in
      guarded db cfg @@ fun () ->
      match Coordination.Scc_algo.solve db queries with
      | Error _ -> Alcotest.fail "figure 1 is safe"
      | Ok o ->
        (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_differential_gupta () =
  check_differential "gupta" (fun cfg ->
      let db = flights_db () in
      guarded db cfg @@ fun () ->
      match Coordination.Gupta.solve db (zurich_pair "g") with
      | Error _ -> Alcotest.fail "pair is safe+unique"
      | Ok o -> (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_differential_single_connected () =
  check_differential "single-connected" (fun cfg ->
      let db, queries = Workload.Listgen.make ~rows:50 ~topics:10 ~seed:7 6 in
      guarded db cfg @@ fun () ->
      match Coordination.Single_connected.solve db queries with
      | Error _ -> Alcotest.fail "list workload is single-connected"
      | Ok o -> (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_differential_consistent () =
  check_differential "consistent" (fun cfg ->
      let db, queries = Workload.Flights.make_worst_case ~rows:40 ~users:8 in
      guarded db cfg @@ fun () ->
      match Coordination.Consistent.solve db Workload.Flights.config queries with
      | Error _ -> Alcotest.fail "flights workload solves"
      | Ok o -> (o.members, o.stats.db_probes, o.degraded <> None))

let test_differential_parallel () =
  check_differential "parallel" (fun cfg ->
      let db, queries = Workload.Flights.make_worst_case ~rows:40 ~users:8 in
      guarded db cfg @@ fun () ->
      match
        Coordination.Executor.solve_consistent ~domains:3 db Workload.Flights.config
          queries
      with
      | Error _ -> Alcotest.fail "flights workload solves"
      | Ok o -> (o.members, o.stats.db_probes, o.degraded <> None))

let test_differential_brute () =
  check_differential "brute" (fun cfg ->
      let db = Database.create () in
      let queries = Query.rename_set (figure1_queries db) in
      guarded db cfg @@ fun () ->
      let o = Coordination.Brute.solve db queries in
      (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_differential_online () =
  let run cfg =
    let db = Database.create () in
    let queries = figure1_queries db in
    let engine = Coordination.Online.create db in
    guarded db cfg @@ fun () ->
    let fired =
      List.map
        (fun q ->
          match Coordination.Online.submit engine q with
          | Coordination.Online.Coordinated c ->
            List.map (fun q -> q.Query.name) c.queries
          | Coordination.Online.Pending -> []
          | Coordination.Online.Rejected_unsafe _ ->
            Alcotest.fail "figure 1 stays safe")
        queries
    in
    (fired, Coordination.Online.pending_count engine)
  in
  let plain = run None and chaos = run (Some chaos_config) in
  Alcotest.(check (pair (list (list string)) int))
    "online: same firing schedule" plain chaos

(* -------------------- Degradation properties ---------------------- *)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let test_budget_prefix_consistent () =
  let solve db queries cfg =
    guarded db cfg @@ fun () ->
    match Coordination.Scc_algo.solve db queries with
    | Error _ -> Alcotest.fail "list workload is safe"
    | Ok o -> o
  in
  let db, queries = Workload.Listgen.make ~rows:50 ~topics:10 ~seed:3 8 in
  let full = solve db queries None in
  Alcotest.(check bool) "full run not degraded" true (full.degraded = None);
  let covered o =
    List.map (fun c -> c.Coordination.Scc_algo.covered) o.Coordination.Scc_algo.candidates
  in
  List.iter
    (fun k ->
      let partial =
        solve db queries
          (Some { Resilient.default_config with max_probes = Some k })
      in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d degrades" k)
        true
        (partial.degraded <> None);
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: candidates are a prefix" k)
        true
        (is_prefix (covered partial) (covered full)))
    [ 1; 2; 4 ]

let test_parallel_degrades_on_prepare_abort () =
  let db, queries = Workload.Flights.make_worst_case ~rows:40 ~users:8 in
  with_guard db { Resilient.default_config with max_probes = Some 0 }
  @@ fun _ ->
  match
    Coordination.Executor.solve_consistent ~domains:2 db Workload.Flights.config queries
  with
  | Error e -> Alcotest.failf "typed abort expected: %a" Coordination.Consistent.pp_error e
  | Ok o ->
    Alcotest.(check bool) "degraded" true (o.degraded <> None);
    Alcotest.(check (list int)) "no members claimed" [] o.members

(* -------------------- Online consume integrity -------------------- *)

let test_online_consume_abort_keeps_store () =
  let db = flights_db () in
  let engine = Coordination.Online.create ~consume:true db in
  let tuples0 = Database.total_tuples db in
  (* A zero-probe budget aborts every evaluation: nothing may fire, and
     with consume on, nothing may be deleted. *)
  (with_guard db { Resilient.default_config with max_probes = Some 0 }
   @@ fun _ ->
   List.iter
     (fun q ->
       match Coordination.Online.submit engine q with
       | Coordination.Online.Coordinated _ ->
         Alcotest.fail "cannot coordinate without probes"
       | Coordination.Online.Pending | Coordination.Online.Rejected_unsafe _ ->
         ())
     (zurich_pair "p"));
  Alcotest.(check bool) "degradation surfaced" true
    (Coordination.Online.last_degradation engine <> None);
  Alcotest.(check int) "no tuple consumed" tuples0 (Database.total_tuples db);
  Alcotest.(check int) "both queries still pending" 2
    (Coordination.Online.pending_count engine);
  (* Guard gone: the same pool fires and books its inventory. *)
  let fired = Coordination.Online.flush engine in
  Alcotest.(check int) "pair fires" 1 (List.length fired);
  Alcotest.(check bool) "flush cleared the degradation" true
    (Coordination.Online.last_degradation engine = None);
  Alcotest.(check int) "pool drained" 0
    (Coordination.Online.pending_count engine);
  Alcotest.(check bool) "inventory booked" true
    (Database.total_tuples db < tuples0)

let test_online_chaos_consume_matches () =
  let run cfg =
    let db = flights_db () in
    let engine = Coordination.Online.create ~consume:true db in
    guarded db cfg @@ fun () ->
    List.iter
      (fun q -> ignore (Coordination.Online.submit engine q))
      (zurich_pair "p" @ zurich_pair "q");
    ( Coordination.Online.total_coordinated engine,
      Coordination.Online.pending_count engine,
      Database.total_tuples db )
  in
  let plain = run None and chaos = run (Some chaos_config) in
  Alcotest.(check (triple int int int))
    "consume under chaos books the same inventory" plain chaos

(* ------------------------- Backoff schedule ------------------------ *)

(* The exponential-backoff schedule is part of the determinism
   contract: CI sweeps seeds, so two guards armed with the same config
   must charge byte-identical sleeps. *)

let backoff_config ?(jitter = Resilient.default_config.backoff_jitter) () =
  {
    Resilient.default_config with
    backoff_jitter = jitter;
    faults = Some { Resilient.fault_defaults with fault_seed = chaos_seed };
  }

let schedule cfg n =
  let g = Resilient.arm cfg in
  List.init n (Resilient.backoff_ns g)

let test_backoff_deterministic () =
  let a = schedule (backoff_config ()) 24
  and b = schedule (backoff_config ()) 24 in
  Alcotest.(check (list int64)) "same seed, same schedule" a b;
  let c =
    schedule
      {
        (backoff_config ()) with
        faults =
          Some { Resilient.fault_defaults with fault_seed = chaos_seed + 1 };
      }
      24
  in
  Alcotest.(check bool) "different seed perturbs the jitter" true (a <> c)

let test_backoff_monotone_and_capped () =
  (* Jitter off: the schedule is exactly base << min i 20. *)
  let base = Resilient.default_config.backoff_base_ns in
  let exact = schedule (backoff_config ~jitter:0.0 ()) 24 in
  List.iteri
    (fun i v ->
      Alcotest.(check int64)
        (Printf.sprintf "retry %d is base << %d" i (min i 20))
        (Int64.shift_left base (min i 20))
        v)
    exact;
  (* A jitter fraction <= 1/3 keeps each step's floor above the
     previous step's ceiling, so the jittered schedule stays monotone
     non-decreasing up to the cap. *)
  let jittered = schedule (backoff_config ~jitter:0.25 ()) 21 in
  let rec check_monotone i = function
    | a :: (b :: _ as rest) ->
      if a > b then
        Alcotest.failf "retry %d backoff %Ld > retry %d backoff %Ld" i a
          (i + 1) b;
      check_monotone (i + 1) rest
    | _ -> ()
  in
  check_monotone 0 jittered;
  (* Every jittered value lands in the [+/- 25%] envelope of its rung. *)
  List.iteri
    (fun i v ->
      let rung = Int64.to_float (Int64.shift_left base (min i 20)) in
      let lo = Int64.of_float (rung *. 0.75)
      and hi = Int64.of_float (rung *. 1.25) in
      if v < lo || v > hi then
        Alcotest.failf "retry %d backoff %Ld outside [%Ld, %Ld]" i v lo hi)
    jittered;
  (* Past the cap the rung stops growing; draws still jitter inside it. *)
  let capped = schedule (backoff_config ~jitter:0.0 ()) 30 in
  let at k = List.nth capped k in
  Alcotest.(check int64) "shift caps at 20" (at 20) (at 29)

let suite =
  [
    Alcotest.test_case "probe budget aborts typed" `Quick test_probe_budget;
    Alcotest.test_case "tuple budget meters the delta" `Quick test_tuple_budget;
    Alcotest.test_case "deadline aborts" `Quick test_deadline;
    Alcotest.test_case "permanent fault is fatal" `Quick test_permanent_fault;
    Alcotest.test_case "retries exhausted is typed, body never runs" `Quick
      test_retries_exhausted;
    Alcotest.test_case "injected latency beats the timeout" `Quick
      test_injected_timeout_retries;
    Alcotest.test_case "fault schedule is seed-deterministic" `Quick
      test_injector_deterministic;
    Alcotest.test_case "backoff schedule is seed-deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff is monotone, jitter-bounded, capped" `Quick
      test_backoff_monotone_and_capped;
    Alcotest.test_case "chaos == fault-free: scc" `Quick test_differential_scc;
    Alcotest.test_case "chaos == fault-free: gupta" `Quick
      test_differential_gupta;
    Alcotest.test_case "chaos == fault-free: single-connected" `Quick
      test_differential_single_connected;
    Alcotest.test_case "chaos == fault-free: consistent" `Quick
      test_differential_consistent;
    Alcotest.test_case "chaos == fault-free: parallel" `Quick
      test_differential_parallel;
    Alcotest.test_case "chaos == fault-free: brute" `Quick
      test_differential_brute;
    Alcotest.test_case "chaos == fault-free: online" `Quick
      test_differential_online;
    Alcotest.test_case "budget abort keeps a prefix of candidates" `Quick
      test_budget_prefix_consistent;
    Alcotest.test_case "parallel degrades on prepare abort" `Quick
      test_parallel_degrades_on_prepare_abort;
    Alcotest.test_case "consume: abort leaves the store untouched" `Quick
      test_online_consume_abort_keeps_store;
    Alcotest.test_case "consume: chaos books the same inventory" `Quick
      test_online_chaos_consume_matches;
  ]
