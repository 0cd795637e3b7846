(* The sharded online engine against the sequential oracle.

   The sharded engine partitions the live pool by component across
   per-shard incremental engines; the sequential incremental engine is
   the differential oracle.  Equality must be exact at every domain
   count — pending entries (with ids), component partition, satisfied
   count, fired sets in order, the final store, and every deterministic
   stats counter — for any interleaving of submissions, batches,
   flushes, withdrawals and external inserts, with and without seeded
   chaos faults.  CI sweeps SHARDED_DOMAINS × CHAOS_SEED; locally the
   suite sweeps domains 1/2/4 itself. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online
module Sharded = Coordination.Online_sharded
module Stats = Coordination.Stats

let domain_counts =
  match
    int_of_string_opt (try Sys.getenv "SHARDED_DOMAINS" with Not_found -> "")
  with
  | Some k when k >= 1 -> [ k ]
  | Some _ | None -> [ 1; 2; 4 ]

(* ------------------------ differential driver --------------------- *)

(* Constants draw from a 4-value pool so partners, multi-member
   components, cross-shard collisions (hence migrations) and unsafe
   postconditions all occur; an occasional var-first postcondition
   touches every component that holds an R head. *)
let random_query rng i =
  let g k = cs (Printf.sprintf "g%d" k) in
  let post =
    let roll = Prng.int rng 10 in
    if roll < 6 then [ atom "R" [ g (Prng.int rng 4); var "y" ] ]
    else if roll < 7 then [ atom "R" [ var "w"; var "y" ] ]
    else []
  in
  Query.make
    ~name:(Printf.sprintf "q%d" i)
    ~post
    ~head:[ atom "R" [ g (Prng.int rng 4); var "x" ] ]
    [ atom "F" [ var "x"; cs dests.(Prng.int rng (Array.length dests)) ] ]

let entry_repr (id, q) = Printf.sprintf "%d:%s" id q.Query.name

let tuples db =
  List.sort Tuple.compare (Relation.to_list (Database.relation db "F"))

(* The sharded engine's pool (with ids), partition, satisfied count and
   id allocator must equal the oracle's. *)
let check_sync ~ctx oracle sharded =
  Alcotest.(check (list string))
    (ctx "pending")
    (List.map entry_repr (Online.pending_entries oracle))
    (List.map entry_repr (Sharded.pending_entries sharded));
  Alcotest.(check (list (list int)))
    (ctx "components") (Online.components oracle) (Sharded.components sharded);
  Alcotest.(check int) (ctx "satisfied")
    (Online.total_coordinated oracle)
    (Sharded.total_coordinated sharded);
  Alcotest.(check int) (ctx "next_id") (Online.next_id oracle)
    (Sharded.next_id sharded)

(* One seeded operation — a submit, a batch, a flush, a withdrawal or an
   external insert — applied to the oracle and to the sharded engine,
   whose answers must agree.  [insert] adds one fact to both stores. *)
let seeded_op rng ~ctx ~oracle ~sharded ~insert step =
  let roll = Prng.int rng 12 in
  if roll < 6 then begin
    let q = random_query rng step in
    Alcotest.(check string)
      (ctx "submission")
      (submission_repr (Online.submit oracle q))
      (submission_repr (Sharded.submit sharded q))
  end
  else if roll < 8 then begin
    let batch = List.init (1 + Prng.int rng 3) (fun j ->
        random_query rng ((1000 * step) + j))
    in
    Alcotest.(check (list (list string)))
      (ctx "submit_all")
      (List.map fired_names (Online.submit_all oracle batch))
      (List.map fired_names (Sharded.submit_all sharded batch))
  end
  else if roll < 9 then
    Alcotest.(check (list (list string)))
      (ctx "flush")
      (List.map fired_names (Online.flush oracle))
      (List.map fired_names (Sharded.flush sharded))
  else if roll < 10 then begin
    (* Withdraw a live id (ids are allocated identically on both
       sides), or a dead one — both must agree either way. *)
    let id =
      match Online.pending_entries oracle with
      | [] -> 0
      | live -> fst (List.nth live (Prng.int rng (List.length live)))
    in
    Alcotest.(check bool)
      (ctx "withdraw")
      (Online.withdraw oracle id)
      (Sharded.withdraw sharded id)
  end
  else
    (* An external insert: both stores move, and every shard's cached
       component verdicts must be dropped, like the oracle's. *)
    insert (1000 + step, dests.(Prng.int rng 3))

let run_differential ~seed ~domains ~consume ~chaos =
  let rng = Prng.create seed in
  let db_seq = mk_db () and db_sh = mk_db () in
  let oracle = Online.create ~consume db_seq in
  let sharded = Sharded.create ~consume ~domains db_sh in
  if chaos then begin
    Database.set_guard db_seq (Some (Resilient.arm chaos_config));
    Database.set_guard db_sh (Some (Resilient.arm chaos_config))
  end;
  let ctx step m =
    Printf.sprintf "seed %d domains %d step %d: %s" seed domains step m
  in
  let insert (fid, dest) =
    Database.insert db_seq "F" [ vi fid; vs dest ];
    Database.insert db_sh "F" [ vi fid; vs dest ]
  in
  for step = 1 to 50 do
    seeded_op rng ~ctx:(ctx step) ~oracle ~sharded ~insert step;
    check_sync ~ctx:(ctx step) oracle sharded
  done;
  (* The closing batch fires through [flush_sequential] in consume
     mode and through [flush_parallel] otherwise. *)
  insert (999, "Lisbon");
  let closing = [ closing_query "Lisbon" ] in
  List.iter
    (fun fired ->
      Alcotest.(check (list (list string)))
        (ctx 999 "closing batch fires") [ [ "closing" ] ]
        (List.map fired_names fired))
    [ Online.submit_all oracle closing; Sharded.submit_all sharded closing ];
  Alcotest.(check (list (list string)))
    (ctx 1000 "final flush")
    (List.map fired_names (Online.flush oracle))
    (List.map fired_names (Sharded.flush sharded));
  check_sync ~ctx:(ctx 1000) oracle sharded;
  Alcotest.(check (list tuple_t))
    (ctx 1001 "final store") (tuples db_seq) (tuples db_sh);
  Alcotest.(check bool)
    (ctx 1002 "deterministic stats counters equal")
    true
    (Stats.same_counters (Online.stats oracle) (Sharded.stats sharded));
  Database.set_guard db_seq None;
  Database.set_guard db_sh None

let test_differential () =
  List.iter
    (fun domains ->
      List.iter
        (fun seed ->
          List.iter
            (fun consume ->
              run_differential ~seed ~domains ~consume ~chaos:false)
            [ false; true ])
        [ chaos_seed; chaos_seed + 1; chaos_seed + 2 ])
    domain_counts

let test_differential_chaos () =
  List.iter
    (fun domains ->
      List.iter
        (fun consume ->
          run_differential ~seed:chaos_seed ~domains ~consume ~chaos:true)
        [ false; true ])
    domain_counts

(* --------------------------- migration ---------------------------- *)

(* Two entries with no edge between them land on different shards; a
   third with an edge to each must migrate one component into the
   other's shard.  None can fire before its flight exists; once it is
   inserted, the fused component coordinates exactly as the oracle
   says. *)
let test_migration_merges_components () =
  let dest = "Lisbon" in
  let qs =
    [
      rq ~dest "a" ~post:[] ~head:"u1";
      rq ~dest "b" ~post:[] ~head:"u2";
      rq ~dest "link" ~post:[ "u1"; "u2" ] ~head:"u3";
    ]
  in
  let db_sh = mk_db () and db_seq = mk_db () in
  let sharded = Sharded.create ~domains:2 db_sh in
  let oracle = Online.create db_seq in
  List.iter
    (fun q ->
      ignore (Online.submit oracle q);
      ignore (Sharded.submit sharded q))
    qs;
  Alcotest.(check bool)
    "distinct components were sharded apart then merged" true
    (Sharded.migrations sharded > 0);
  List.iter (fun db -> Database.insert db "F" [ vi 500; vs dest ]) [ db_seq; db_sh ];
  Alcotest.(check (list (list int)))
    "fused partition agrees" (Online.components oracle)
    (Sharded.components sharded);
  let fired = List.map fired_names (Sharded.flush sharded) in
  Alcotest.(check (list (list string)))
    "fused component fires identically"
    (List.map fired_names (Online.flush oracle))
    fired;
  Alcotest.(check int) "all three fired" 3 (List.length (List.concat fired))

(* A migrated component keeps its quiet verdict.  [a] and [b] evaluate
   quiet on different shards; [link] reaches both and has an unmatched
   postcondition, so it migrates [b]'s component to [a]'s shard and is
   proven quiet there exactly as in the sequential engine: no
   evaluation, the same probe count. *)
let test_migration_keeps_quiet () =
  let dest = "Nowhere" in
  let qs =
    [
      rq ~dest "a" ~post:[] ~head:"u1";
      rq ~dest "b" ~post:[] ~head:"u2";
      rq ~dest "link" ~post:[ "u1"; "u2"; "nowhere" ] ~head:"u3";
    ]
  in
  let sharded = Sharded.create ~domains:2 (mk_db ()) in
  let oracle = Online.create (mk_db ()) in
  List.iter
    (fun q ->
      Alcotest.(check string)
        (q.Query.name ^ ": submission")
        (submission_repr (Online.submit oracle q))
        (submission_repr (Sharded.submit sharded q)))
    qs;
  Alcotest.(check bool) "link migrated a component" true
    (Sharded.migrations sharded > 0);
  let probes s = s.Stats.db_probes in
  Alcotest.(check int) "one probe per partner, none for link" 2
    (probes (Online.stats oracle));
  Alcotest.(check int) "sharded probes == sequential"
    (probes (Online.stats oracle))
    (probes (Sharded.stats sharded));
  Alcotest.(check bool) "deterministic stats counters equal" true
    (Stats.same_counters (Online.stats oracle) (Sharded.stats sharded))

(* -------------------------- graph handoff ------------------------- *)

(* The graph an engine hands [Scc_algo] for a component, assembled from
   the edges stored at admission, must be the one
   [Coordination_graph.build] derives from scratch over the component's
   queries renamed by position: the same extended edges and targets, and
   the same adjacency order (so the same SCC numbering).  Pools come
   from [random_query] — 4 constants, var-first posts, self-compatible
   atoms — admitted by one-query batches, which keep unsafe components
   pending; fires, withdrawals and flushes make the engine drop edges
   and re-fuse the survivors. *)
let test_component_graph_matches_build () =
  let edge_repr (e : Coordination_graph.edge) =
    Printf.sprintf "%d.%d->%d.%d" e.src e.post_index e.dst e.head_index
  in
  let shape (g : Coordination_graph.t) =
    ( List.map edge_repr g.extended,
      Array.to_list (Array.map Array.to_list g.targets),
      List.map (Graphs.Digraph.successors g.graph)
        (Graphs.Digraph.nodes g.graph) )
  in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let engine = Online.create (mk_db ()) in
      for step = 1 to 60 do
        (match Prng.int rng 10 with
        | 0 -> ignore (Online.flush engine)
        | 1 -> (
          match Online.pending_entries engine with
          | [] -> ()
          | live -> ignore (Online.withdraw engine (fst (Prng.pick rng live))))
        | _ -> ignore (Online.submit_all engine [ random_query rng step ]));
        let entries = Array.of_list (Online.pending_entries engine) in
        List.iter
          (fun comp ->
            let ctx =
              Printf.sprintf "seed %d step %d: component graph" seed step
            in
            let handed =
              Online.component_graph engine
                (List.map (fun p -> fst entries.(p)) comp)
            in
            let rebuilt =
              Coordination_graph.build
                (Query.rename_set (List.map (fun p -> snd entries.(p)) comp))
            in
            let e1, t1, s1 = shape rebuilt and e2, t2, s2 = shape handed in
            Alcotest.(check (list string)) (ctx ^ " edges") e1 e2;
            Alcotest.(check (list (list (list (pair int int)))))
              (ctx ^ " targets") t1 t2;
            Alcotest.(check (list (list int))) (ctx ^ " adjacency") s1 s2)
          (Online.components engine)
      done)
    (List.init 10 (fun k -> chaos_seed + k))

(* ------------------------ bounded tables -------------------------- *)

(* 2,000 chains of 4 queries, each naming fresh partner constants, as a
   long-running serve sees them; every chain fires when its tail
   arrives.  After every submission each internal table of the
   sequential and of the sharded engine is bounded by the live pool,
   not by requests served. *)
let test_tables_follow_live_pool () =
  let chains = 2_000 and len = 4 in
  let check_bounded ~engine ~live sizes =
    List.iter
      (fun (table, n) ->
        if n > 2 * (live + 1) then
          Alcotest.failf "%s: table %s holds %d with %d live entries" engine
            table n live)
      sizes
  in
  let online = Online.create (mk_db ()) in
  let sharded = Sharded.create ~domains:2 (mk_db ()) in
  for c = 0 to chains - 1 do
    for i = 0 to len - 1 do
      let q =
        chain_query ~prefix:(Printf.sprintf "c%du" c) i ~last:(i = len - 1)
      in
      ignore (Online.submit online q);
      ignore (Sharded.submit sharded q);
      check_bounded ~engine:"online" ~live:(Online.pending_count online)
        (Online.table_sizes online);
      check_bounded ~engine:"sharded" ~live:(Sharded.pending_count sharded)
        (Sharded.table_sizes sharded)
    done
  done;
  Alcotest.(check (pair int int)) "every chain fired"
    (chains * len, chains * len)
    (Online.total_coordinated online, Sharded.total_coordinated sharded);
  Alcotest.(check bool) "tables empty with the pool" true
    (List.for_all (fun (_, n) -> n = 0)
       (Online.table_sizes online @ Sharded.table_sizes sharded))

(* ------------------------- degraded flush ------------------------- *)

(* Under an exhausted probe budget a batch degrades rather than fires;
   degraded components stay dirty, so disarming and flushing again must
   converge to exactly the oracle's result. *)
let test_degraded_flush_converges () =
  let pool =
    [
      Query.make ~name:"qa"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "G"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      Query.make ~name:"qb" ~post:[]
        ~head:[ atom "R" [ cs "C"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Zurich" ] ];
    ]
  in
  let db_sh = mk_db () and db_seq = mk_db () in
  let sharded = Sharded.create ~domains:2 db_sh in
  let oracle = Online.create db_seq in
  let guard =
    Some (Resilient.arm { Resilient.default_config with max_probes = Some 0 })
  in
  List.iter (fun db -> Database.set_guard db guard) [ db_seq; db_sh ];
  Alcotest.(check (pair int int)) "degraded batches fire nothing" (0, 0)
    ( List.length (Online.submit_all oracle pool),
      List.length (Sharded.submit_all sharded pool) );
  Alcotest.(check bool) "degradation reported" true
    (Sharded.last_degradation sharded <> None);
  List.iter (fun db -> Database.set_guard db None) [ db_seq; db_sh ];
  Alcotest.(check (list (list string)))
    "disarmed flush converges to the oracle"
    (List.map fired_names (Online.flush oracle))
    (List.map fired_names (Sharded.flush sharded));
  Alcotest.(check bool) "degradation cleared" true
    (Sharded.last_degradation sharded = None)

let suite =
  [
    Alcotest.test_case "differential: sharded == sequential oracle" `Quick
      test_differential;
    Alcotest.test_case "differential under seeded chaos faults" `Quick
      test_differential_chaos;
    Alcotest.test_case "migration merges cross-shard components" `Quick
      test_migration_merges_components;
    Alcotest.test_case "migration keeps the quiet verdict" `Quick
      test_migration_keeps_quiet;
    Alcotest.test_case "handed-over graph == Coordination_graph.build"
      `Quick test_component_graph_matches_build;
    Alcotest.test_case "internal tables follow the live pool" `Quick
      test_tables_follow_live_pool;
    Alcotest.test_case "degraded flush stays dirty and converges" `Quick
      test_degraded_flush_converges;
  ]
