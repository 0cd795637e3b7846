open Relational
open Entangled

type error =
  | Not_safe of (int * int) list
  | Not_unique
  | Unification_failed of Combine.failure

let pp_error queries ppf = function
  | Not_safe ws ->
    Format.fprintf ppf "query set is not safe (%d unsafe postconditions)"
      (List.length ws)
  | Not_unique -> Format.fprintf ppf "query set is not unique"
  | Unification_failed f ->
    Format.fprintf ppf "unification failed: %a" (Combine.pp_failure queries) f

type outcome = {
  queries : Query.t array;
  solution : Solution.t option;
  stats : Stats.t;
  degraded : Resilient.degradation option;
}

let solve db input =
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "gupta.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let queries = Query.rename_set input in
  let counters0 = Database.snapshot_counters db in
  let finish result =
    stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  if Array.length queries = 0 then
    finish (Ok { queries; solution = None; stats; degraded = None })
  else
  let graph, graph_ns =
    Obs.timed_span "gupta.graph" (fun () -> Coordination_graph.build queries)
  in
  stats.graph_ns <- graph_ns;
  match Safety.classify graph with
  | `Unsafe -> finish (Error (Not_safe (Safety.unsafe_posts graph)))
  | `Safe -> finish (Error Not_unique)
  | `Safe_unique -> (
    let members = List.init (Array.length queries) Fun.id in
    let unified, unify_ns =
      Obs.timed_span "gupta.unify" (fun () -> Combine.unify_set graph ~members)
    in
    stats.unify_ns <- unify_ns;
    match unified with
    | Error f -> finish (Error (Unification_failed f))
    | Ok subst -> (
      (* The single combined probe is the only database work: an abort
         here degrades to "nothing probed" rather than raising. *)
      let witness, ground_ns =
        Obs.timed_span "gupta.ground" (fun () ->
            match Ground.solve db queries ~members subst with
            | w -> Ok w
            | exception Resilient.Abort reason -> Error reason)
      in
      stats.ground_ns <- ground_ns;
      stats.candidates <- 1;
      match witness with
      | Error reason ->
        finish
          (Ok
             {
               queries;
               solution = None;
               stats;
               degraded =
                 Some
                   (Resilient.degraded ~unprobed:[ members ]
                      ~note:"combined query unprobed" reason);
             })
      | Ok None ->
        finish (Ok { queries; solution = None; stats; degraded = None })
      | Ok (Some assignment) ->
        finish
          (Ok
             {
               queries;
               solution = Some (Solution.make ~members ~assignment);
               stats;
               degraded = None;
             })))
