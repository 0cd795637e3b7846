(* The incremental online engine against a rebuild-everything oracle.

   The engine (persistent atom index, stored edges, dirty tracking) must
   be observationally equivalent to [Online_oracle], which re-derives
   the coordination graph of the whole pool on every evaluation: same
   coordinated sets, same pool, same component partition, same
   satisfied counts, same database contents — for any interleaving of
   submissions, batches, flushes and external inserts.  The
   differential driver below checks exactly that on seeded random
   interleavings; the remaining cases pin the incremental machinery
   (dirty-component skipping, deep-chain traversal, inventory conflict
   reporting, stats folding) individually. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online

(* ------------------------ differential driver --------------------- *)

let run_differential ~query ~seed ~consume =
  let rng = Prng.create seed in
  let db_full = mk_db () and db_inc = mk_db () in
  let full = Online_oracle.create ~consume db_full in
  let inc = Online.create ~consume db_inc in
  (* Every tuple ever inserted: the store a consume-mode fire used. *)
  let shadow = if consume then mk_db () else db_inc in
  let insert fid dest =
    List.iter
      (fun db -> Database.insert db "F" [ vi fid; vs dest ])
      (db_full :: db_inc :: (if consume then [ shadow ] else []))
  in
  let valid step c =
    check_fired ~ctx:(Printf.sprintf "seed %d step %d" seed step) shadow c
  in
  let check_sync step =
    let ctx m = Printf.sprintf "seed %d step %d: %s" seed step m in
    Alcotest.(check (list string))
      (ctx "pending")
      (List.map (fun q -> q.Query.name) (Online_oracle.pending full))
      (List.map (fun q -> q.Query.name) (Online.pending inc));
    Alcotest.(check (list (list int)))
      (ctx "components")
      (Online_oracle.components full)
      (Online.components inc);
    Alcotest.(check int) (ctx "satisfied")
      (Online_oracle.total_coordinated full)
      (Online.total_coordinated inc)
  in
  let check_same_fired step label ff fi =
    Alcotest.(check (list (list string)))
      (Printf.sprintf "seed %d %s" seed label)
      (List.map fired_names ff) (List.map fired_names fi);
    List.iter (valid step) fi
  in
  let next_fid = ref 1000 in
  for step = 1 to 40 do
    let roll = Prng.int rng 10 in
    if roll < 6 then begin
      let q = query rng step in
      let rf = Online_oracle.submit full q in
      let ri = Online.submit inc q in
      Alcotest.(check string)
        (Printf.sprintf "seed %d step %d: submission" seed step)
        (submission_repr rf) (submission_repr ri);
      match ri with
      | Online.Coordinated c -> valid step c
      | Online.Pending | Online.Rejected_unsafe _ -> ()
    end
    else if roll < 7 then begin
      let batch =
        List.init (1 + Prng.int rng 3) (fun j -> query rng ((1000 * step) + j))
      in
      check_same_fired step
        (Printf.sprintf "step %d: submit_all" step)
        (Online_oracle.submit_all full batch)
        (Online.submit_all inc batch)
    end
    else if roll < 9 then
      check_same_fired step
        (Printf.sprintf "step %d: flush" step)
        (Online_oracle.flush full) (Online.flush inc)
    else begin
      (* An external insert: both stores move, and every cached
         component verdict in the incremental engine must be dropped. *)
      incr next_fid;
      let dest = dests.(Prng.int rng 3) in
      insert !next_fid dest
    end;
    check_sync step
  done;
  insert 999 "Lisbon";
  let closing = [ closing_query "Lisbon" ] in
  let fired = Online.submit_all inc closing in
  Alcotest.(check (list (list string)))
    (Printf.sprintf "seed %d: closing batch fires" seed)
    [ [ "closing" ] ]
    (List.map fired_names fired);
  check_same_fired 1000 "closing batch"
    (Online_oracle.submit_all full closing)
    fired;
  check_same_fired 1000 "final flush" (Online_oracle.flush full)
    (Online.flush inc);
  check_sync 1000;
  let tuples db =
    List.sort Tuple.compare (Relation.to_list (Database.relation db "F"))
  in
  Alcotest.(check (list tuple_t))
    (Printf.sprintf "seed %d: final store" seed)
    (tuples db_full) (tuples db_inc)

let test_differential_oracle () =
  List.iter
    (fun seed ->
      List.iter
        (fun consume -> run_differential ~query:random_query ~seed ~consume)
        [ false; true ])
    [ 1; 2; 3; 4; 5 ]

(* The arrivals submission can prove quiet, and the ones it must
   not: a third of them carry a postcondition no head ever matches, and
   one in six a variable-first postcondition that can make the
   component it joins unsafe (a rejection leaves its survivors due). *)
let unmatched_query rng i =
  let q = random_query rng i in
  let extra =
    match Prng.int rng 6 with
    | 0 | 1 -> [ atom "R" [ cs "nobody"; var "z" ] ]
    | 2 -> [ atom "R" [ var "w"; var "z" ] ]
    | _ -> []
  in
  Query.make ~name:q.Query.name ~post:(q.Query.post @ extra)
    ~head:q.Query.head q.Query.body.Cq.atoms

let test_differential_unmatched () =
  List.iter
    (fun seed ->
      List.iter
        (fun consume ->
          run_differential ~query:unmatched_query ~seed ~consume)
        [ false; true ])
    (List.init 20 (fun k -> k + 1))

(* --------------------------- submit_all --------------------------- *)

let test_submit_all_matches_enqueue_flush () =
  let n = 8 in
  let queries = List.init n (fun i -> chain_query i ~last:(i = n - 1)) in
  let incremental =
    let engine = Online.create (flights_db ()) in
    List.map fired_names (Online.submit_all engine queries)
  in
  (* No arrival can fire before F holds a Zurich flight. *)
  let enqueued =
    let db = Database.create () in
    ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
    let engine = Online.create db in
    List.iter (fun q -> ignore (Online.submit engine q)) queries;
    Database.insert db "F" [ vi 101; vs "Zurich" ];
    List.map fired_names (Online.flush engine)
  in
  Alcotest.(check (list (list string)))
    "batch == enqueue-then-flush" enqueued incremental;
  Alcotest.(check (list (list string)))
    "batch: incremental == oracle"
    (List.map fired_names
       (Online_oracle.submit_all (Online_oracle.create (flights_db ())) queries))
    incremental;
  Alcotest.(check int) "whole chain fired" n
    (List.length (List.concat incremental))

(* ------------------------- dirty tracking ------------------------- *)

(* A pair whose bodies are unsatisfiable grounds nothing but costs a
   database probe per evaluation.  A flush with no intervening change
   must skip the (clean) component entirely — no new probes — while an
   external insert dirties it again. *)
let test_flush_skips_clean_components () =
  let db = flights_db () in
  let engine = Online.create db in
  let pair =
    [
      Query.make ~name:"a"
        ~post:[ atom "R" [ cs "B"; var "x" ] ]
        ~head:[ atom "R" [ cs "A"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Nowhere" ] ];
      Query.make ~name:"b"
        ~post:[ atom "R" [ cs "A"; var "y" ] ]
        ~head:[ atom "R" [ cs "B"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Nowhere" ] ];
    ]
  in
  List.iter (fun q -> ignore (Online.submit engine q)) pair;
  let probes_after_pair = (Online.stats engine).Coordination.Stats.db_probes in
  Alcotest.(check bool) "the pair was probed" true (probes_after_pair > 0);
  Alcotest.(check (list (list string))) "nothing fires" []
    (List.map fired_names (Online.flush engine));
  Alcotest.(check int) "clean component skipped: no new probes"
    probes_after_pair
    (Online.stats engine).Coordination.Stats.db_probes;
  (* Any store mutation invalidates cached verdicts. *)
  Database.insert db "F" [ vi 999; vs "Paris" ];
  ignore (Online.flush engine);
  Alcotest.(check bool) "store change re-evaluates" true
    ((Online.stats engine).Coordination.Stats.db_probes > probes_after_pair)

(* --------------------------- deep chains -------------------------- *)

(* A chain-shaped pool tens of thousands of queries long: component
   discovery must not recurse (a recursive DFS overflowed the call stack
   here) and the incremental partition must agree with the rebuilt
   one. *)
let test_components_deep_chain () =
  let n = 50_000 in
  let queries = List.init n (fun i -> chain_query i ~last:false) in
  let oracle = Online_oracle.create (Database.create ()) in
  let engine = Online.create (Database.create ()) in
  Alcotest.(check (pair int int)) "the batch fires nothing" (0, 0)
    ( List.length (Online_oracle.submit_all oracle queries),
      List.length (Online.submit_all engine queries) );
  let full = Online_oracle.components oracle in
  Alcotest.(check int) "one component" 1 (List.length full);
  Alcotest.(check int) "all members" n (List.length (List.hd full));
  Alcotest.(check (list (list int)))
    "incremental partition agrees" full (Online.components engine)

(* ---------------------- bounded atom indexes ---------------------- *)

(* Every chain names fresh partner constants, as a long-running serve
   sees them.  Even chains fire; odd chains never get their tail and
   are withdrawn.  Once every entry is gone, both atom indexes hold no
   key at all: their size follows the live pool, not requests served. *)
let test_index_keys_follow_live_pool () =
  let engine = Online.create (flights_db ()) in
  let chains = 200 and len = 4 in
  for c = 0 to chains - 1 do
    List.init (len - (c mod 2)) (fun i ->
        chain_query ~prefix:(Printf.sprintf "c%du" c) i ~last:(i = len - 1))
    |> List.iter (fun q -> ignore (Online.submit engine q))
  done;
  Alcotest.(check int) "even chains fired" (chains / 2 * len)
    (Online.total_coordinated engine);
  let pending = chains / 2 * (len - 1) in
  let index_keys () =
    let size name = List.assoc name (Online.table_sizes engine) in
    (size "posts_index_keys", size "heads_index_keys")
  in
  Alcotest.(check (pair int int)) "one key per live constant"
    (pending, pending) (index_keys ());
  List.iter
    (fun (id, _) -> ignore (Online.withdraw engine id))
    (Online.pending_entries engine);
  Alcotest.(check (pair int int)) "no key outlives its entries" (0, 0)
    (index_keys ())

(* ---------------------------- self-loops -------------------------- *)

(* The arrival's var-first postcondition is compatible with its partner's
   head and with its own head.  [Coordination_graph.build] has both
   edges, so the batch solver calls the post ambiguous; the engine's
   admission must store the self-loop too, or it would find the pair
   safe and evaluate it instead of rejecting the arrival.  The partner's
   body matches no flight, so it waits in the pool. *)
let test_self_loop_makes_arrival_unsafe () =
  let partner =
    Query.make ~name:"partner" ~post:[]
      ~head:[ atom "R" [ cs "a"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Nowhere" ] ]
  in
  let arrival =
    Query.make ~name:"arrival"
      ~post:[ atom "R" [ var "w"; var "y" ] ]
      ~head:[ atom "R" [ cs "b"; var "z" ] ]
      [ atom "F" [ var "z"; cs "Zurich" ] ]
  in
  let expected =
    match Coordination.Scc_algo.solve (flights_db ()) [ partner; arrival ] with
    | Error (Coordination.Scc_algo.Not_safe ws) -> ws
    | Ok _ -> Alcotest.fail "the batch solver must find the pair unsafe"
  in
  Alcotest.(check (list (pair int int))) "the arrival's post is ambiguous"
    [ (1, 0) ] expected;
  let engine = Online.create (flights_db ()) in
  ignore (Online.submit engine partner);
  Alcotest.(check string) "online verdict == batch verdict"
    (submission_repr (Online.Rejected_unsafe expected))
    (submission_repr (Online.submit engine arrival))

(* ------------------------ inventory conflicts --------------------- *)

let test_consume_double_spend_reported () =
  (* One Zurich flight; unification merges the pair's body variables, so
     both members ground onto the same tuple — one unit of inventory
     demanded twice. *)
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Database.insert db "F" [ vi 101; vs "Zurich" ];
  Database.insert db "F" [ vi 200; vs "Paris" ];
  let engine = Online.create ~consume:true db in
  let gwyneth =
    Query.make ~name:"gwyneth"
      ~post:[ atom "R" [ cs "Chris"; var "x" ] ]
      ~head:[ atom "R" [ cs "Gwyneth"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let chris =
    Query.make ~name:"chris" ~post:[]
      ~head:[ atom "R" [ cs "Chris"; var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ]
  in
  ignore (Online.submit engine gwyneth);
  (match Online.submit engine chris with
  | Online.Coordinated c ->
    Alcotest.(check int) "pair fires" 2 (List.length c.Online.queries)
  | _ -> Alcotest.fail "pair must coordinate");
  (match Online.last_inventory_conflict engine with
  | Some { double_spent = [ ("F", t) ]; missing = [] } ->
    Alcotest.(check tuple_t) "the shared tuple" (tup [ vi 101; vs "Zurich" ]) t
  | Some _ -> Alcotest.fail "unexpected conflict shape"
  | None -> Alcotest.fail "double spend must be reported");
  (* The tuple is booked once; the unrelated row survives. *)
  Alcotest.(check int) "inventory booked once" 1
    (Relation.cardinal (Database.relation db "F"));
  (* The next operation clears the report. *)
  ignore (Online.flush engine);
  Alcotest.(check bool) "conflict cleared" true
    (Online.last_inventory_conflict engine = None)

let test_consume_disjoint_inventory_no_conflict () =
  (* Two Zurich flights and no variable sharing: members book distinct
     tuples, so no conflict is recorded. *)
  let db = flights_db () in
  let engine = Online.create ~consume:true db in
  let a =
    Query.make ~name:"a"
      ~post:[ atom "R" [ cs "B"; var "y" ] ]
      ~head:[ atom "R" [ cs "A"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let b =
    Query.make ~name:"b" ~post:[]
      ~head:[ atom "R" [ cs "B"; var "y" ] ]
      [ atom "H" [ var "y"; cs "Zurich" ] ]
  in
  ignore (Online.submit engine a);
  (match Online.submit engine b with
  | Online.Coordinated _ -> ()
  | _ -> Alcotest.fail "pair must coordinate");
  Alcotest.(check bool) "no conflict" true
    (Online.last_inventory_conflict engine = None)

(* --------------------------- stats fold --------------------------- *)

let test_stats_merge () =
  let open Coordination.Stats in
  let a = create () in
  a.db_probes <- 3;
  a.graph_ns <- 10L;
  a.candidates <- 2;
  a.plan_hits <- 1;
  a.tuples_scanned <- 7;
  let b = create () in
  b.db_probes <- 4;
  b.graph_ns <- 5L;
  b.unify_ns <- 2L;
  b.cleaning_rounds <- 1;
  b.plan_misses <- 6;
  merge ~into:a b;
  Alcotest.(check int) "probes" 7 a.db_probes;
  Alcotest.(check int64) "graph" 15L a.graph_ns;
  Alcotest.(check int64) "unify" 2L a.unify_ns;
  Alcotest.(check int) "candidates" 2 a.candidates;
  Alcotest.(check int) "cleaning" 1 a.cleaning_rounds;
  Alcotest.(check int) "hits" 1 a.plan_hits;
  Alcotest.(check int) "misses" 6 a.plan_misses;
  Alcotest.(check int) "scanned" 7 a.tuples_scanned;
  (* [from] is untouched. *)
  Alcotest.(check int) "source intact" 4 b.db_probes

(* A degraded flush must not haunt the next one: [last_degradation]
   reports the most recent operation only, so once the guard is gone
   and the retry succeeds the flag reads [None] again (regression test
   for a stale-flag bug — the flag used to survive the recovery). *)
let test_degradation_flag_cleared_on_recovery () =
  let db = mk_db () in
  let engine = Online.create db in
  let qa =
    Query.make ~name:"qa"
      ~post:[ atom "R" [ cs "C"; var "x" ] ]
      ~head:[ atom "R" [ cs "G"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  and qb =
    Query.make ~name:"qb" ~post:[]
      ~head:[ atom "R" [ cs "C"; var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ]
  in
  Alcotest.(check string) "qa waits for its partner" "pending"
    (submission_repr (Online.submit engine qa));
  (* An exhausted probe budget degrades qb's evaluation: nothing fires. *)
  let guard =
    Resilient.arm { Resilient.default_config with max_probes = Some 0 }
  in
  Database.set_guard db (Some guard);
  Alcotest.(check string) "degraded arrival fires nothing" "pending"
    (submission_repr (Online.submit engine qb));
  Alcotest.(check bool)
    "degradation reported" true
    (Online.last_degradation engine <> None);
  (* Guard gone: the component is still dirty, the pair fires, and the
     stale degradation flag is cleared by the successful operation. *)
  Database.set_guard db None;
  Alcotest.(check int) "pair fires" 1 (List.length (Online.flush engine));
  Alcotest.(check bool)
    "degradation cleared after recovery" true
    (Online.last_degradation engine = None)

(* ---------------------- proven-quiet arrivals --------------------- *)

let probes engine = (Online.stats engine).Coordination.Stats.db_probes

(* A flush caches an unsafe component's verdict (it is clean), but the
   component is not quiet: an arrival with an unmatched postcondition
   that joins it must still be rejected, with the batch solver's
   witnesses. *)
let test_quiet_unsafe_component_still_rejects () =
  let pool =
    [
      rq "p" ~post:[ "k" ] ~head:"a";
      rq "h1" ~post:[] ~head:"k";
      rq "h2" ~post:[] ~head:"k";
    ]
  in
  let arrival = rq "z" ~post:[ "nowhere" ] ~head:"k" in
  let expected =
    match Coordination.Scc_algo.solve (flights_db ()) (pool @ [ arrival ]) with
    | Error (Coordination.Scc_algo.Not_safe ws) -> ws
    | Ok _ -> Alcotest.fail "the batch solver must find the pool unsafe"
  in
  let engine = Online.create (flights_db ()) in
  Alcotest.(check int) "unsafe component fires nothing" 0
    (List.length (Online.submit_all engine pool));
  Alcotest.(check int) "its verdict is cached" 0
    (List.assoc "dirty" (Online.table_sizes engine));
  Alcotest.(check string) "arrival rejected as batch"
    (submission_repr (Online.Rejected_unsafe expected))
    (submission_repr (Online.submit engine arrival))

(* A degraded evaluation proves nothing, so its component is never
   quiet: once the guard is gone, an arrival with an unmatched
   postcondition re-evaluates it, and the partner fires. *)
let test_quiet_never_after_degraded () =
  let db = flights_db () in
  let engine = Online.create db in
  Database.set_guard db
    (Some (Resilient.arm { Resilient.default_config with max_probes = Some 0 }));
  Alcotest.(check string) "partner pending under the guard" "pending"
    (submission_repr (Online.submit engine (rq "b" ~post:[] ~head:"b0")));
  Alcotest.(check bool) "its evaluation degraded" true
    (Online.last_degradation engine <> None);
  Database.set_guard db None;
  Alcotest.(check string) "arrival re-evaluates the component" "fired b"
    (submission_repr
       (Online.submit engine
          (rq "z" ~post:[ "b0"; "nowhere" ] ~head:"z0")))

(* Quiet verdicts hold for one store: an external insert sends the next
   arrival down the full path, which probes again. *)
let test_quiet_dropped_by_external_insert () =
  let db = flights_db () in
  let engine = Online.create db in
  ignore (Online.submit engine (rq ~dest:"Nowhere" "b" ~post:[] ~head:"b0"));
  let after_b = probes engine in
  Alcotest.(check bool) "the partner was probed" true (after_b > 0);
  let arrival i =
    rq (Printf.sprintf "z%d" i)
      ~post:[ "b0"; Printf.sprintf "nowhere%d" i ]
      ~head:(Printf.sprintf "z%d" i)
  in
  Alcotest.(check string) "quiet arrival pending" "pending"
    (submission_repr (Online.submit engine (arrival 1)));
  Alcotest.(check int) "proven quiet: no probe" after_b (probes engine);
  Database.insert db "F" [ vi 999; vs "Paris" ];
  Alcotest.(check string) "next arrival pending" "pending"
    (submission_repr (Online.submit engine (arrival 2)));
  Alcotest.(check bool) "store moved: the component is probed again" true
    (probes engine > after_b)

(* A head-first Figure 4 chain: each of the first 31 arrivals has an
   unmatched postcondition and joins a quiet component, so none runs
   the solver; the tail's arrival fires the whole chain. *)
let test_quiet_chain_runs_one_solve () =
  let n = 32 in
  let db, chain = Workload.Listgen.make ~rows:1_000 ~topics:10 ~seed:3 n in
  let engine = Online.create db in
  let solves items =
    List.length
      (List.filter
         (function Obs.Span s -> s.Obs.name = "scc.solve" | Obs.Event _ -> false)
         items)
  in
  let traced f =
    let sink, drain = Obs.memory_sink () in
    let r = Obs.with_sink sink f in
    (r, solves (drain ()))
  in
  let pending, head_solves =
    traced (fun () ->
        List.map
          (fun q -> submission_repr (Online.submit engine q))
          (List.filteri (fun i _ -> i < n - 1) chain))
  in
  Alcotest.(check (list string)) "31 arrivals pending"
    (List.init (n - 1) (fun _ -> "pending"))
    pending;
  Alcotest.(check int) "no solve before the tail" 0 head_solves;
  let tail, tail_solves =
    traced (fun () -> Online.submit engine (List.nth chain (n - 1)))
  in
  Alcotest.(check int) "one solve for the tail" 1 tail_solves;
  (match tail with
  | Online.Coordinated c ->
    Alcotest.(check int) "the whole chain fires" n (List.length c.Online.queries)
  | other -> Alcotest.failf "tail: %s" (submission_repr other));
  Alcotest.(check int) "one candidate per member" n
    (Online.stats engine).Coordination.Stats.candidates

let suite =
  [
    Alcotest.test_case "differential: incremental == rebuild oracle" `Quick
      test_differential_oracle;
    Alcotest.test_case "differential: unmatched and ambiguous posts" `Quick
      test_differential_unmatched;
    Alcotest.test_case "submit_all == enqueue + flush == oracle" `Quick
      test_submit_all_matches_enqueue_flush;
    Alcotest.test_case "flush skips clean components" `Quick
      test_flush_skips_clean_components;
    Alcotest.test_case "components survive deep chains" `Quick
      test_components_deep_chain;
    Alcotest.test_case "atom index keys follow the live pool" `Quick
      test_index_keys_follow_live_pool;
    Alcotest.test_case "self-loop: unsafe arrival rejected as batch" `Quick
      test_self_loop_makes_arrival_unsafe;
    Alcotest.test_case "consume: double spend reported" `Quick
      test_consume_double_spend_reported;
    Alcotest.test_case "consume: disjoint inventory clean" `Quick
      test_consume_disjoint_inventory_no_conflict;
    Alcotest.test_case "stats merge sums every field" `Quick test_stats_merge;
    Alcotest.test_case "degradation flag cleared on recovery" `Quick
      test_degradation_flag_cleared_on_recovery;
    Alcotest.test_case "quiet: cached-unsafe component still rejects" `Quick
      test_quiet_unsafe_component_still_rejects;
    Alcotest.test_case "quiet: never after a degraded evaluation" `Quick
      test_quiet_never_after_degraded;
    Alcotest.test_case "quiet: dropped by an external insert" `Quick
      test_quiet_dropped_by_external_insert;
    Alcotest.test_case "quiet: a 32-chain runs one solve" `Quick
      test_quiet_chain_runs_one_solve;
  ]
