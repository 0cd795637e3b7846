(* Workload generators: PRNG determinism, scale-free shape, and the
   figure workloads' advertised properties. *)

open Relational
open Helpers

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 124 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_ranges () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Prng.int_in_range rng ~lo:5 ~hi:7 in
    Alcotest.(check bool) "in closed range" true (y >= 5 && y <= 7);
    let f = Prng.float rng in
    Alcotest.(check bool) "unit float" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: non-positive bound")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_sample_distinct () =
  let rng = Prng.create 11 in
  let s = Prng.sample_distinct rng 5 10 in
  Alcotest.(check int) "five" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "bounded" true (x >= 0 && x < 10)) s

let test_prng_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  Alcotest.(check (list int)) "permutation" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list a))

let test_scale_free_shape () =
  let rng = Prng.create 1 in
  let g = Workload.Scale_free.generate rng ~nodes:500 ~edges_per_node:2 in
  Alcotest.(check int) "nodes" 500 (Graphs.Digraph.node_count g);
  (* Every node except the seed points at edges_per_node (or fewer,
     early) targets. *)
  Alcotest.(check int) "node 0 out" 0 (Graphs.Digraph.out_degree g 0);
  Alcotest.(check int) "node 1 out" 1 (Graphs.Digraph.out_degree g 1);
  Alcotest.(check int) "later nodes out" 2 (Graphs.Digraph.out_degree g 100);
  (* Heavy tail: the max in-degree far exceeds the mean (~2). *)
  let hist = Workload.Scale_free.in_degree_histogram g in
  let max_deg = List.fold_left (fun m (d, _) -> max m d) 0 hist in
  Alcotest.(check bool) "heavy tail" true (max_deg >= 10);
  (* No self loops. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "no self loop" false (Graphs.Digraph.mem_edge g v v))
    (Graphs.Digraph.nodes g)

let test_social_posts () =
  let db = Database.create () in
  let r = Workload.Social.install_posts ~rows:1000 ~topics:10 db in
  Alcotest.(check int) "rows" 1000 (Relation.cardinal r);
  Alcotest.(check int) "topics" 10
    (List.length
       (List.sort_uniq Value.compare
          (List.map (fun t -> Tuple.get t 1) (Relation.to_list r))));
  (* Every topic constant the generators can pick exists. *)
  for t = 0 to 9 do
    Alcotest.(check bool) "topic exists" true
      (Relation.count_matching r ~col:1 (Value.str (Workload.Social.topic t)) > 0)
  done

let test_listgen_structure () =
  let db, queries = Workload.Listgen.make ~rows:1000 ~topics:10 ~seed:3 20 in
  Alcotest.(check int) "twenty queries" 20 (List.length queries);
  let renamed = Entangled.Query.rename_set queries in
  let g = Entangled.Coordination_graph.build renamed in
  Alcotest.(check bool) "safe" true (Entangled.Safety.is_safe g);
  Alcotest.(check bool) "not unique" false (Entangled.Safety.is_unique g);
  (* Chain: i -> i+1. *)
  for i = 0 to 18 do
    Alcotest.(check bool) "chain edge" true (Graphs.Digraph.mem_edge g.graph i (i + 1))
  done;
  Alcotest.(check int) "exactly the chain" 19 (Graphs.Digraph.edge_count g.graph);
  (* Every body satisfiable, as the paper requires. *)
  Array.iter
    (fun q ->
      Alcotest.(check bool) "body satisfiable" true
        (Eval.satisfiable db q.Entangled.Query.body))
    renamed

let test_listgen_solution () =
  let db, queries = Workload.Listgen.make ~rows:1000 ~topics:10 ~seed:3 10 in
  match Coordination.Scc_algo.solve db queries with
  | Error _ -> Alcotest.fail "safe"
  | Ok outcome -> (
    (* Every suffix coordinates: n candidates, the largest is the full set. *)
    Alcotest.(check int) "all suffixes" 10 (List.length outcome.candidates);
    match outcome.solution with
    | Some s ->
      Alcotest.(check int) "full chain" 10 (Entangled.Solution.size s);
      check_validates db outcome.queries s
    | None -> Alcotest.fail "chain coordinates")

let test_netgen_structure () =
  let db, queries, g = Workload.Netgen.make ~rows:1000 ~topics:10 ~seed:4 30 in
  Alcotest.(check int) "queries = nodes" 30 (List.length queries);
  let renamed = Entangled.Query.rename_set queries in
  let cg = Entangled.Coordination_graph.build renamed in
  Alcotest.(check bool) "safe" true (Entangled.Safety.is_safe cg);
  Alcotest.(check bool) "same edges as generator graph" true
    (Graphs.Digraph.equal g cg.graph);
  match Coordination.Scc_algo.solve db queries with
  | Error _ -> Alcotest.fail "safe"
  | Ok outcome -> (
    match outcome.solution with
    | Some s -> check_validates db outcome.queries s
    | None -> Alcotest.fail "sinks always coordinate")

let test_flights_worst_case () =
  let db, queries = Workload.Flights.make_worst_case ~rows:50 ~users:8 in
  match Coordination.Consistent.solve db Workload.Flights.config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    (* Worst case: every value satisfies every query... *)
    Array.iter
      (fun opts -> Alcotest.(check int) "50 options each" 50 (Tuple.Set.cardinal opts))
      outcome.options;
    (* ...so V(Q) has exactly |table| entries and everyone survives. *)
    Alcotest.(check int) "all values inspected" 50 (List.length outcome.candidates);
    List.iter
      (fun (_, size) -> Alcotest.(check int) "nobody pruned" 8 size)
      outcome.candidates;
    Alcotest.(check int) "full coordinating set" 8 (List.length outcome.members);
    (* Probe count is linear: one per query for V(q), one per query for
       friends, one per member for grounding. *)
    Alcotest.(check int) "linear probes" (8 + 8 + 8) outcome.stats.db_probes

let test_meetings_committee () =
  let db = Database.create () in
  ignore (Meetings.install_slots db ~days:3 ~hours:2 ~rooms:2);
  let u name = Value.str name in
  (* Two committees sharing Bea; Ann (chair of the first) is only free on
     day 1. *)
  let queries =
    Meetings.committee_queries
      ~pins:[ (u "ann", 1) ]
      [ [ u "ann"; u "bea"; u "cid" ]; [ u "bea"; u "dan" ] ]
  in
  Alcotest.(check int) "four professionals" 4 (List.length queries);
  match Coordination.Consistent.solve db Meetings.config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome -> (
    (* Everyone meets: the shared member chains both committees onto the
       same (day, hour), which must be on day 1 because of Ann's pin. *)
    Alcotest.(check int) "all four coordinate" 4 (List.length outcome.members);
    (match outcome.chosen_value with
    | Some v -> Alcotest.check value_t "pinned day" (Value.str "d1") v.(0)
    | None -> Alcotest.fail "solution exists");
    match Coordination.Consistent.to_solution db outcome with
    | None -> Alcotest.fail "expressible"
    | Some (compiled, solution) -> check_validates db compiled solution)

let test_meetings_unsatisfiable_pins () =
  let db = Database.create () in
  ignore (Meetings.install_slots db ~days:2 ~hours:1 ~rooms:1);
  let u name = Value.str name in
  (* Two members of one committee pin different days: the committee can
     never meet, and because each names the other, both are cleaned
     away at every value. *)
  let queries =
    Meetings.committee_queries
      ~pins:[ (u "ann", 0); (u "bea", 1) ]
      [ [ u "ann"; u "bea" ] ]
  in
  match Coordination.Consistent.solve db Meetings.config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    Alcotest.(check (list int)) "nobody meets" [] outcome.members;
    (* Brute force agrees on the compiled instance. *)
    let compiled =
      Coordination.Consistent_query.compile_set Meetings.config queries
    in
    Alcotest.(check bool) "brute agrees" false
      (Coordination.Brute.exists_coordinating_set db compiled)

let test_meetings_guards () =
  Alcotest.check_raises "tiny committee"
    (Invalid_argument "Meetings.committee_queries: committee needs >= 2 members")
    (fun () ->
      ignore (Meetings.committee_queries [ [ Value.str "solo" ] ]))

let test_movies_generator () =
  let db, queries = Workload.Movies.make () in
  Alcotest.(check int) "four queries" 4 (List.length queries);
  Alcotest.(check int) "five screenings" 5
    (Relation.cardinal (Database.relation db "M"));
  Alcotest.(check int) "eight friendships" 8
    (Relation.cardinal (Database.relation db "C"))

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng sample distinct" `Quick test_prng_sample_distinct;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "scale-free shape" `Quick test_scale_free_shape;
    Alcotest.test_case "social posts table" `Quick test_social_posts;
    Alcotest.test_case "listgen structure" `Quick test_listgen_structure;
    Alcotest.test_case "listgen full-chain solution" `Quick test_listgen_solution;
    Alcotest.test_case "netgen structure" `Quick test_netgen_structure;
    Alcotest.test_case "flights worst case" `Quick test_flights_worst_case;
    Alcotest.test_case "movies generator" `Quick test_movies_generator;
    Alcotest.test_case "meetings: overlapping committees" `Quick
      test_meetings_committee;
    Alcotest.test_case "meetings: conflicting pins" `Quick
      test_meetings_unsatisfiable_pins;
    Alcotest.test_case "meetings: guards" `Quick test_meetings_guards;
    qtest ~count:50 "scale-free graphs are DAGs (edges point backwards)"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Prng.create seed in
        let g = Workload.Scale_free.generate rng ~nodes:60 ~edges_per_node:2 in
        let ok = ref true in
        Graphs.Digraph.iter_edges (fun u v -> if v >= u then ok := false) g;
        !ok);
  ]
