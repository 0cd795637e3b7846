(* Per-solve evaluation budgets and graceful degradation.

   The budget tests are the heart: a probe budget at or above a run's
   probe count must leave the answer and the probe count exactly as the
   unguarded run has them, and any smaller budget must come back as a
   degraded outcome from every solver, never as an escaped [Abort].
   The smaller budgets are drawn from CHAOS_SEED, so CI sweeps them
   without touching the code. *)

open Relational
open Entangled
open Helpers

let with_guard db ~max_probes f =
  Database.set_guard db (Some (Resilient.arm ~max_probes ()));
  Fun.protect ~finally:(fun () -> Database.set_guard db None) f

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
  let g = Resilient.arm ~max_probes:2 () in
  let hits = ref 0 in
  let probe () = Resilient.probe g ~tuples_scanned:no_tuples (fun () -> incr hits) in
  probe ();
  probe ();
  expect_abort Resilient.Max_probes probe;
  Alcotest.(check int) "body ran exactly twice" 2 !hits;
  Resilient.start_solve g;
  probe ();
  Alcotest.(check int) "start_solve resets the budget" 3 !hits

let test_tuple_budget () =
  let g = Resilient.arm ~max_tuples:5 () in
  let scanned = ref 0 in
  let probe () =
    Resilient.probe g ~tuples_scanned:(fun () -> !scanned) (fun () -> ())
  in
  probe ();
  (* The budget meters the delta from the first guarded probe. *)
  scanned := 10;
  expect_abort Resilient.Max_tuples probe

let test_deadline () =
  let g = Resilient.arm ~deadline_ns:0L () in
  expect_abort Resilient.Deadline (fun () ->
      Resilient.probe g ~tuples_scanned:no_tuples (fun () -> ()))

(* ------------------------ Budget differential ---------------------- *)

let members = Alcotest.(list int)

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

let guarded db max_probes f =
  match max_probes with
  | None -> f ()
  | Some max_probes -> with_guard db ~max_probes f

(* Three probe budgets below a run's [probes], drawn from CHAOS_SEED. *)
let drawn_budgets probes =
  let rng = Prng.create chaos_seed in
  List.init 3 (fun _ -> Prng.int rng probes)

(* [solve budget] runs one solver on a fresh copy of its workload and
   returns its answer, database probe count and whether it degraded.
   A budget of exactly the run's probe count (and one above it) changes
   nothing; every drawn smaller budget degrades, and returns instead of
   raising. *)
let check_budgets answer name solve =
  let members, probes, degraded = solve None in
  Alcotest.(check bool) (name ^ ": unguarded not degraded") false degraded;
  if probes = 0 then Alcotest.failf "%s: the run issues no probe" name;
  List.iter
    (fun b ->
      let members', probes', degraded' = solve (Some b) in
      Alcotest.check answer
        (Printf.sprintf "%s: budget %d, same answer" name b)
        members members';
      Alcotest.(check int)
        (Printf.sprintf "%s: budget %d, same db probes" name b)
        probes probes';
      Alcotest.(check bool)
        (Printf.sprintf "%s: budget %d not degraded" name b)
        false degraded')
    [ probes; probes + 1 ];
  List.iter
    (fun k ->
      let _, _, degraded = solve (Some k) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: budget %d of %d probes degrades" name k probes)
        true degraded)
    (drawn_budgets probes)

let test_budget_scc () =
  check_budgets members "scc" (fun budget ->
      let db = Database.create () in
      let queries = figure1_queries db in
      guarded db budget @@ fun () ->
      match Coordination.Scc_algo.solve db queries with
      | Error _ -> Alcotest.fail "figure 1 is safe"
      | Ok o ->
        (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_budget_gupta () =
  check_budgets members "gupta" (fun budget ->
      let db = flights_db () in
      guarded db budget @@ fun () ->
      match Coordination.Gupta.solve db (zurich_pair "g") with
      | Error _ -> Alcotest.fail "pair is safe+unique"
      | Ok o -> (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_budget_single_connected () =
  check_budgets members "single-connected" (fun budget ->
      let db, queries = Workload.Listgen.make ~rows:50 ~topics:10 ~seed:7 6 in
      guarded db budget @@ fun () ->
      match Coordination.Single_connected.solve db queries with
      | Error _ -> Alcotest.fail "list workload is single-connected"
      | Ok o -> (members_of o.solution, o.stats.db_probes, o.degraded <> None))

let test_budget_consistent () =
  check_budgets members "consistent" (fun budget ->
      let db, queries = Workload.Flights.make_worst_case ~rows:40 ~users:8 in
      guarded db budget @@ fun () ->
      match Coordination.Consistent.solve db Workload.Flights.config queries with
      | Error _ -> Alcotest.fail "flights workload solves"
      | Ok o -> (o.members, o.stats.db_probes, o.degraded <> None))

let test_budget_brute () =
  check_budgets members "brute" (fun budget ->
      let db = Database.create () in
      let queries = Query.rename_set (figure1_queries db) in
      guarded db budget @@ fun () ->
      let o = Coordination.Brute.solve db queries in
      (members_of o.solution, o.stats.db_probes, o.degraded <> None))

(* The online engine shares one budget across the whole submit
   sequence.  Its answer is the coordinated names in firing order and,
   since it consumes, the tuples left in the store; an evaluation the
   budget cut short shows as a submit whose [last_degradation] is
   set. *)
let test_budget_online () =
  check_budgets Alcotest.(pair (list string) int) "online" (fun budget ->
      let db = Database.create () in
      let queries = figure1_queries db in
      let engine = Coordination.Online.create ~consume:true db in
      guarded db budget @@ fun () ->
      let degraded = ref false in
      let fired =
        List.concat_map
          (fun q ->
            let r = Coordination.Online.submit engine q in
            if Coordination.Online.last_degradation engine <> None then
              degraded := true;
            match r with
            | Coordination.Online.Coordinated c ->
              List.map (fun q -> q.Query.name) c.queries
            | Coordination.Online.Pending -> []
            | Coordination.Online.Rejected_unsafe _ ->
              Alcotest.fail "figure 1 stays safe")
          queries
      in
      ((fired, Database.total_tuples db), Database.probes db, !degraded))

(* -------------------- Degradation properties ---------------------- *)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let test_budget_prefix_consistent () =
  let solve db queries budget =
    guarded db budget @@ fun () ->
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
      let partial = solve db queries (Some k) in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d degrades" k)
        true
        (partial.degraded <> None);
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: candidates are a prefix" k)
        true
        (is_prefix (covered partial) (covered full)))
    ([ 1; 2; 4 ] @ drawn_budgets full.stats.db_probes)

let test_consistent_degrades_on_prepare_abort () =
  let db, queries = Workload.Flights.make_worst_case ~rows:40 ~users:8 in
  with_guard db ~max_probes:0 @@ fun () ->
  match Coordination.Consistent.solve db Workload.Flights.config queries with
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
  (with_guard db ~max_probes:0
   @@ fun () ->
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

let suite =
  [
    Alcotest.test_case "probe budget aborts typed" `Quick test_probe_budget;
    Alcotest.test_case "tuple budget meters the delta" `Quick test_tuple_budget;
    Alcotest.test_case "deadline aborts" `Quick test_deadline;
    Alcotest.test_case "budget vs unguarded: scc" `Quick test_budget_scc;
    Alcotest.test_case "budget vs unguarded: gupta" `Quick test_budget_gupta;
    Alcotest.test_case "budget vs unguarded: single-connected" `Quick
      test_budget_single_connected;
    Alcotest.test_case "budget vs unguarded: consistent" `Quick
      test_budget_consistent;
    Alcotest.test_case "budget vs unguarded: brute" `Quick test_budget_brute;
    Alcotest.test_case "budget vs unguarded: online" `Quick test_budget_online;
    Alcotest.test_case "budget abort keeps a prefix of candidates" `Quick
      test_budget_prefix_consistent;
    Alcotest.test_case "consistent degrades on prepare abort" `Quick
      test_consistent_degrades_on_prepare_abort;
    Alcotest.test_case "consume: abort leaves the store untouched" `Quick
      test_online_consume_abort_keeps_store;
  ]
