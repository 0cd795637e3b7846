(* The graph substrate: digraph, Tarjan SCC + condensation, topological
   order, reachability, DOT export — unit cases plus qcheck invariants. *)

open Graphs

let test_digraph_basics () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 2;
  Alcotest.(check int) "parallel edges collapsed" 3 (Digraph.edge_count g);
  Alcotest.(check (list int)) "succ" [ 1 ] (Digraph.successors g 0);
  Alcotest.(check (list int)) "pred" [ 0 ] (Digraph.predecessors g 1);
  Alcotest.(check bool) "self loop" true (Digraph.mem_edge g 2 2);
  Alcotest.(check int) "out degree" 1 (Digraph.out_degree g 2);
  Alcotest.(check int) "in degree" 2 (Digraph.in_degree g 2);
  Alcotest.check_raises "bad node"
    (Invalid_argument "Digraph: node 7 out of [0,4)") (fun () ->
      Digraph.add_edge g 7 0)

let test_transpose () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true
    (Digraph.mem_edge t 1 0 && Digraph.mem_edge t 2 1);
  Alcotest.(check bool) "double transpose" true (Digraph.equal g (Digraph.transpose t))

let test_induced () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let s = Digraph.induced_subgraph g ~keep:(fun v -> v <> 2) in
  Alcotest.(check int) "edges dropped" 1 (Digraph.edge_count s);
  Alcotest.(check bool) "kept edge" true (Digraph.mem_edge s 0 1)

let test_scc_cycle () =
  (* 0 -> 1 -> 2 -> 0 cycle plus a tail 3 -> 0. *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 0); (3, 0) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "two components" 2 r.count;
  Alcotest.(check bool) "cycle together" true
    (r.component.(0) = r.component.(1) && r.component.(1) = r.component.(2));
  Alcotest.(check bool) "tail separate" true (r.component.(3) <> r.component.(0));
  (* Our numbering is sinks-first: the cycle (the only sink) is 0. *)
  Alcotest.(check int) "sink id" 0 r.component.(0);
  Alcotest.(check bool) "not trivial" false (Scc.is_trivial r)

let test_scc_chain_deep () =
  (* A 50k-node chain must not blow the stack (iterative Tarjan). *)
  let n = 50_000 in
  let g = Digraph.create n in
  for i = 0 to n - 2 do
    Digraph.add_edge g i (i + 1)
  done;
  let r = Scc.compute g in
  Alcotest.(check int) "all singletons" n r.count;
  Alcotest.(check bool) "trivial" true (Scc.is_trivial r)

let test_condensation () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (4, 2) ] in
  let r = Scc.compute g in
  let c = Scc.condensation g r in
  Alcotest.(check int) "three components" 3 r.count;
  Alcotest.(check int) "condensed edges" 2 (Digraph.edge_count c);
  (* Condensation is a DAG: topological sort succeeds. *)
  Alcotest.(check int) "topo length" 3 (List.length (Topo.sort c))

let test_scc_masked () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 0); (2, 3) ] in
  let r = Scc.compute_masked g ~alive:(fun v -> v < 2) in
  Alcotest.(check int) "one live component" 1 r.count;
  Alcotest.(check int) "dead marker" (-1) r.component.(2)

let test_topo () =
  let g = Digraph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let order = Topo.sort g in
  Alcotest.(check bool) "valid order" true (Topo.is_topological_order g order);
  Alcotest.(check (list int)) "reverse" (List.rev order) (Topo.reverse_sort g)

let test_topo_cycle () =
  let g = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  let raised = try ignore (Topo.sort g); false with Topo.Cycle _ -> true in
  Alcotest.(check bool) "cycle detected" true raised

let test_reach () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list int)) "from 0" [ 0; 1; 2 ] (Reach.reachable_list g 0);
  Alcotest.(check (list int)) "from 3" [ 3; 4 ] (Reach.reachable_list g 3);
  let masks = Reach.descendants_per_node g in
  Alcotest.(check bool) "self reachable" true masks.(4).(4)

let test_simple_paths () =
  (* Diamond: two simple paths 0 -> 3. *)
  let g = Digraph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "diamond" 2 (Reach.simple_path_count g 0 3 ~max:10);
  Alcotest.(check int) "capped" 2 (Reach.simple_path_count g 0 3 ~max:2);
  Alcotest.(check int) "single" 1 (Reach.simple_path_count g 1 3 ~max:10);
  Alcotest.(check int) "none" 0 (Reach.simple_path_count g 3 0 ~max:10)

let test_dot () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  let s = Dot.to_string ~label:(fun v -> Printf.sprintf "q%d" v) ~highlight:(fun v -> v = 0) g in
  Alcotest.(check bool) "mentions edge" true (Helpers.contains s "n0 -> n1");
  Alcotest.(check bool) "label rendered" true (Helpers.contains s "label=\"q1\"");
  Alcotest.(check bool) "highlight rendered" true (Helpers.contains s "fillcolor")

(* Random graph generator for property tests. *)
let gen_graph =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* edges = list_size (int_range 0 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

let graph_arb =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))
    gen_graph

let test_union_find_basics () =
  let uf = Union_find.create () in
  Union_find.ensure uf 5;
  Alcotest.(check int) "cardinal" 6 (Union_find.cardinal uf);
  Alcotest.(check bool) "singletons" false (Union_find.same uf 0 1);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "united transitively" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "others untouched" false (Union_find.same uf 0 3);
  let r = Union_find.union uf 0 2 in
  Alcotest.(check int) "idempotent union returns root" r
    (Union_find.find uf 1);
  Alcotest.check_raises "unensured id"
    (Invalid_argument "Union_find: id 6 not ensured") (fun () ->
      ignore (Union_find.find uf 6))

(* The engine's dissolution pattern: reset every live member of a
   component, then re-union the survivors from adjacency. *)
let test_union_find_reset () =
  let uf = Union_find.create ~capacity:2 () in
  Union_find.ensure uf 4;
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  (* Dissolve {0,1,2}; survivors 1 and 2 stay connected, 0 leaves. *)
  Union_find.reset uf 0;
  Union_find.reset uf 1;
  Union_find.reset uf 2;
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "survivors reunited" true (Union_find.same uf 1 2);
  Alcotest.(check bool) "retired member detached" false
    (Union_find.same uf 0 1);
  Alcotest.(check bool) "other component intact" true (Union_find.same uf 3 4)

let test_union_find_deep () =
  (* A long union chain must not recurse: find is iterative with path
     halving. *)
  let n = 200_000 in
  let uf = Union_find.create () in
  Union_find.ensure uf (n - 1);
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  Alcotest.(check bool) "ends connected" true (Union_find.same uf 0 (n - 1))

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "union-find basics" `Quick test_union_find_basics;
    Alcotest.test_case "union-find reset/dissolve" `Quick
      test_union_find_reset;
    Alcotest.test_case "union-find deep chain" `Quick test_union_find_deep;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "scc cycle" `Quick test_scc_cycle;
    Alcotest.test_case "scc deep chain (iterative)" `Quick test_scc_chain_deep;
    Alcotest.test_case "condensation" `Quick test_condensation;
    Alcotest.test_case "scc masked" `Quick test_scc_masked;
    Alcotest.test_case "topological sort" `Quick test_topo;
    Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
    Alcotest.test_case "reachability" `Quick test_reach;
    Alcotest.test_case "simple path counting" `Quick test_simple_paths;
    Alcotest.test_case "dot export" `Quick test_dot;
    Helpers.qtest ~count:300 "scc is a partition" graph_arb (fun (n, es) ->
        let g = Digraph.of_edges n es in
        let r = Scc.compute g in
        let seen = Array.make n 0 in
        Array.iter (List.iter (fun v -> seen.(v) <- seen.(v) + 1)) r.members;
        Array.for_all (fun c -> c = 1) seen
        && Array.for_all (fun v -> v >= 0 && v < r.count) r.component);
    Helpers.qtest ~count:300 "condensation is acyclic and ids reverse-topo"
      graph_arb (fun (n, es) ->
        let g = Digraph.of_edges n es in
        let r = Scc.compute g in
        let c = Scc.condensation g r in
        (* Edges go from higher to lower component ids (sinks-first). *)
        let ok = ref true in
        Digraph.iter_edges (fun u v -> if u <= v then ok := false) c;
        !ok
        &&
        match Topo.sort c with _ -> true);
    Helpers.qtest ~count:300 "mutual reachability iff same component" graph_arb
      (fun (n, es) ->
        let g = Digraph.of_edges n es in
        let r = Scc.compute g in
        let reach = Reach.descendants_per_node g in
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            let same = r.component.(u) = r.component.(v) in
            let mutual = reach.(u).(v) && reach.(v).(u) in
            if same <> mutual then ok := false
          done
        done;
        !ok);
    Helpers.qtest ~count:200 "topo order valid on condensations" graph_arb
      (fun (n, es) ->
        let g = Digraph.of_edges n es in
        let r = Scc.compute g in
        let c = Scc.condensation g r in
        Topo.is_topological_order c (Topo.sort c));
  ]
