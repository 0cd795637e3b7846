(* The incremental online engine against a rebuild-everything oracle.

   The engine (persistent atom index, union-find, dirty tracking) must
   be observationally equivalent to [Online_oracle], which re-derives
   the coordination graph of the whole pool on every evaluation: same
   coordinated sets, same pool, same component partition, same
   satisfied counts, same database contents — for any interleaving of
   submissions, flushes and external inserts.  The differential driver
   below checks exactly that on seeded random interleavings; the
   remaining cases pin the incremental machinery (dirty-component
   skipping, deep-chain traversal, inventory conflict reporting, stats
   folding) individually. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online

(* ------------------------ differential driver --------------------- *)

let run_differential ~seed ~eager ~consume =
  let rng = Prng.create seed in
  let db_full = mk_db () and db_inc = mk_db () in
  let full = Online_oracle.create ~eager ~consume db_full in
  let inc = Online.create ~eager ~consume db_inc in
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
  let next_fid = ref 1000 in
  for step = 1 to 40 do
    let roll = Prng.int rng 10 in
    if roll < 7 then begin
      let q = random_query rng step in
      let rf = Online_oracle.submit full q in
      let ri = Online.submit inc q in
      Alcotest.(check string)
        (Printf.sprintf "seed %d step %d: submission" seed step)
        (submission_repr rf) (submission_repr ri)
    end
    else if roll < 9 then begin
      let ff = Online_oracle.flush full in
      let fi = Online.flush inc in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "seed %d step %d: flush" seed step)
        (List.map fired_names ff) (List.map fired_names fi)
    end
    else begin
      (* An external insert: both stores move, and every cached
         component verdict in the incremental engine must be dropped. *)
      incr next_fid;
      let dest = dests.(Prng.int rng 3) in
      Database.insert db_full "F" [ vi !next_fid; vs dest ];
      Database.insert db_inc "F" [ vi !next_fid; vs dest ]
    end;
    check_sync step
  done;
  let ff = Online_oracle.flush full in
  let fi = Online.flush inc in
  Alcotest.(check (list (list string)))
    (Printf.sprintf "seed %d: final flush" seed)
    (List.map fired_names ff) (List.map fired_names fi);
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
        (fun (eager, consume) -> run_differential ~seed ~eager ~consume)
        [ (true, false); (false, false); (true, true); (false, true) ])
    [ 1; 2; 3; 4; 5 ]

(* --------------------------- submit_all --------------------------- *)

let chain_query ?(prefix = "u") i ~last =
  Query.make
    ~name:(Printf.sprintf "%s%d" prefix i)
    ~post:
      (if last then []
       else [ atom "R" [ cs (Printf.sprintf "%s%d" prefix (i + 1)); var "y" ] ])
    ~head:[ atom "R" [ cs (Printf.sprintf "%s%d" prefix i); var "x" ] ]
    [ atom "F" [ var "x"; cs "Zurich" ] ]

let test_submit_all_matches_deferred_flush () =
  let n = 8 in
  let queries = List.init n (fun i -> chain_query i ~last:(i = n - 1)) in
  let incremental =
    let engine = Online.create (flights_db ()) in
    List.map fired_names (Online.submit_all engine queries)
  in
  let deferred =
    let engine = Online.create ~eager:false (flights_db ()) in
    List.iter (fun q -> ignore (Online.submit engine q)) queries;
    List.map fired_names (Online.flush engine)
  in
  Alcotest.(check (list (list string)))
    "batch == enqueue-then-flush" deferred incremental;
  Alcotest.(check (list (list string)))
    "batch: incremental == oracle"
    (List.map fired_names
       (Online_oracle.submit_all (Online_oracle.create (flights_db ())) queries))
    incremental;
  Alcotest.(check int) "whole chain fired" n
    (List.length (List.concat incremental))

(* ------------------------- dirty tracking ------------------------- *)

(* A pair whose bodies are unsatisfiable grounds nothing but costs a
   database probe per evaluation.  A second flush with no intervening
   change must skip the (clean) component entirely — no new probes —
   while an external insert dirties it again. *)
let test_flush_skips_clean_components () =
  let db = flights_db () in
  let engine = Online.create ~eager:false db in
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
  Alcotest.(check (list (list string))) "nothing fires" []
    (List.map fired_names (Online.flush engine));
  let probes_after_first = (Online.stats engine).Coordination.Stats.db_probes in
  Alcotest.(check bool) "first flush probed" true (probes_after_first > 0);
  ignore (Online.flush engine);
  Alcotest.(check int) "clean component skipped: no new probes"
    probes_after_first
    (Online.stats engine).Coordination.Stats.db_probes;
  (* Any store mutation invalidates cached verdicts. *)
  Database.insert db "F" [ vi 999; vs "Paris" ];
  ignore (Online.flush engine);
  Alcotest.(check bool) "store change re-evaluates" true
    ((Online.stats engine).Coordination.Stats.db_probes > probes_after_first)

(* --------------------------- deep chains -------------------------- *)

(* A chain-shaped pool tens of thousands of queries long: component
   discovery must not recurse (a recursive DFS overflowed the call stack
   here) and the incremental partition must agree with the rebuilt
   one. *)
let test_components_deep_chain () =
  let n = 50_000 in
  let queries = List.init n (fun i -> chain_query i ~last:(i = n - 1)) in
  let oracle = Online_oracle.create ~eager:false (Database.create ()) in
  let engine = Online.create ~eager:false (Database.create ()) in
  List.iter
    (fun q ->
      ignore (Online_oracle.submit oracle q);
      ignore (Online.submit engine q))
    queries;
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
  Alcotest.(check (pair int int)) "one key per live constant"
    (pending, pending) (Online.index_keys engine);
  List.iter
    (fun (id, _) -> ignore (Online.withdraw engine id))
    (Online.pending_entries engine);
  Alcotest.(check (pair int int)) "no key outlives its entries" (0, 0)
    (Online.index_keys engine)

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
  let engine = Online.create ~eager:false db in
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
  (match (Online.submit engine qa, Online.submit engine qb) with
  | Online.Pending, Online.Pending -> ()
  | _ -> Alcotest.fail "lazy submissions must enqueue");
  (* An exhausted probe budget degrades the flush and fires nothing. *)
  let guard =
    Resilient.arm { Resilient.default_config with max_probes = Some 0 }
  in
  Database.set_guard db (Some guard);
  Alcotest.(check int)
    "degraded flush fires nothing" 0
    (List.length (Online.flush engine));
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

let suite =
  [
    Alcotest.test_case "differential: incremental == rebuild oracle" `Quick
      test_differential_oracle;
    Alcotest.test_case "submit_all == enqueue + flush == oracle" `Quick
      test_submit_all_matches_deferred_flush;
    Alcotest.test_case "flush skips clean components" `Quick
      test_flush_skips_clean_components;
    Alcotest.test_case "components survive deep chains" `Quick
      test_components_deep_chain;
    Alcotest.test_case "atom index keys follow the live pool" `Quick
      test_index_keys_follow_live_pool;
    Alcotest.test_case "consume: double spend reported" `Quick
      test_consume_double_spend_reported;
    Alcotest.test_case "consume: disjoint inventory clean" `Quick
      test_consume_disjoint_inventory_no_conflict;
    Alcotest.test_case "stats merge sums every field" `Quick test_stats_merge;
    Alcotest.test_case "degradation flag cleared on recovery" `Quick
      test_degradation_flag_cleared_on_recovery;
  ]
