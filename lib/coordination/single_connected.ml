open Relational
open Entangled

type error =
  | Too_many_posts of int
  | Not_single_connected of int * int

let pp_error queries ppf = function
  | Too_many_posts q ->
    Format.fprintf ppf "query %s has more than one postcondition"
      queries.(q).Query.name
  | Not_single_connected (a, b) ->
    Format.fprintf ppf
      "queries %s and %s are connected by more than one simple path"
      queries.(a).Query.name queries.(b).Query.name

let check (graph : Coordination_graph.t) =
  let n = Array.length graph.queries in
  let too_many =
    Array.to_list graph.queries
    |> List.mapi (fun i q -> (i, List.length q.Query.post))
    |> List.find_opt (fun (_, k) -> k > 1)
  in
  match too_many with
  | Some (i, _) -> Error (Too_many_posts i)
  | None -> (
    (* Cycles (including self-loops) give two queries on a common cycle,
       hence two simple paths between them in at least one direction. *)
    let self_loop =
      List.find_opt (fun v -> Graphs.Digraph.mem_edge graph.graph v v)
        (Graphs.Digraph.nodes graph.graph)
    in
    match self_loop with
    | Some v -> Error (Not_single_connected (v, v))
    | None -> (
      let scc = Graphs.Scc.compute graph.graph in
      let big =
        Array.to_list scc.members
        |> List.find_opt (fun ms -> List.length ms >= 2)
      in
      match big with
      | Some (a :: b :: _) -> Error (Not_single_connected (a, b))
      | Some _ -> assert false
      | None -> (
        let witness = ref None in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v && !witness = None then
              if Graphs.Reach.simple_path_count graph.graph u v ~max:2 >= 2 then
                witness := Some (u, v)
          done
        done;
        match !witness with
        | Some (u, v) -> Error (Not_single_connected (u, v))
        | None -> Ok ())))

type outcome = {
  queries : Query.t array;
  solution : Solution.t option;
  stats : Stats.t;
  degraded : Resilient.degradation option;
}

let solve db input =
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "single_connected.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let counters0 = Database.snapshot_counters db in
  let queries = Query.rename_set input in
  let finish result =
    stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  let graph, graph_ns =
    Obs.timed_span "single_connected.graph" (fun () ->
        Coordination_graph.build queries)
  in
  stats.graph_ns <- graph_ns;
  match Obs.with_span "single_connected.check" (fun () -> check graph) with
  | Error e -> finish (Error e)
  | Ok () ->
    let n = Array.length queries in
    (* Per-query body satisfiability, memoised: one probe each, used to
       prune chains early (the paper's preprocessing). *)
    let body_ok = Array.make n None in
    let body_satisfiable q =
      match body_ok.(q) with
      | Some b -> b
      | None ->
        let b = Eval.satisfiable db queries.(q).Query.body in
        body_ok.(q) <- Some b;
        b
    in
    (* DFS from a root: follow the (single) postcondition of each query,
       trying candidate heads in edge order; a complete chain costs one
       combined probe. *)
    let best = ref None in
    let consider members assignment =
      let size = List.length members in
      match !best with
      | Some (s, _, _) when s >= size -> ()
      | _ -> best := Some (size, members, assignment)
    in
    let exception Found of int list * Eval.valuation in
    let rec descend path subst q =
      (* [path] is the chain so far, most recent first; [q] its tip. *)
      if body_satisfiable q then
        match queries.(q).Query.post with
        | [] -> (
          let members = List.sort_uniq Int.compare (q :: path) in
          stats.candidates <- stats.candidates + 1;
          match Ground.solve db queries ~members subst with
          | Some assignment -> raise (Found (members, assignment))
          | None -> ())
        | p :: _ ->
          let targets = Coordination_graph.post_targets graph ~src:q ~post_index:0 in
          List.iter
            (fun (d, hi) ->
              let h = List.nth queries.(d).Query.head hi in
              match Subst.unify_atoms subst p h with
              | None -> ()
              | Some subst' -> descend (q :: path) subst' d)
            targets
    in
    let degraded = ref None in
    let exception Stop_all of Resilient.error * int in
    Obs.with_span
      ~args:(fun () -> [ ("candidates", Obs.Int stats.candidates) ])
      "single_connected.chains"
      (fun () ->
        try
          for root = 0 to n - 1 do
            (* A covered root's chain is a subchain of a found solution;
               skip. *)
            let covered =
              match !best with
              | Some (_, ms, _) -> List.mem root ms
              | None -> false
            in
            if not covered then
              try descend [] Subst.empty root with
              | Found (members, assignment) -> consider members assignment
              | Resilient.Abort reason -> raise (Stop_all (reason, root))
          done
        with Stop_all (reason, root) ->
          (* Keep the best closure found from earlier roots; the roots
             from the aborted one on were never (fully) descended. *)
          let unprobed = List.init (n - root) (fun i -> [ root + i ]) in
          degraded :=
            Some
              (Resilient.degraded ~unprobed
                 ~note:
                   (Printf.sprintf "%d of %d roots unprobed" (n - root) n)
                 reason));
    let solution =
      Option.map
        (fun (_, members, assignment) -> Solution.make ~members ~assignment)
        !best
    in
    finish (Ok { queries; solution; stats; degraded = !degraded })
