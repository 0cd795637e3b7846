open Relational
open Entangled

type report = {
  outcome : Scc_algo.outcome;
  events : Scc_algo.event list;
}

(* Collect the solver's typed payloads from the process-wide Obs stream:
   install a memory sink for the duration of the call, then recover the
   [Scc_event] payloads in emission order.  Any other sinks (say a
   --trace file) keep observing the same run. *)
let trace ?selection ?preprocess ?minimize db input =
  let sink, contents = Obs.memory_sink () in
  let result =
    Obs.with_sink sink (fun () ->
        Scc_algo.solve ?selection ?preprocess ?minimize db input)
  in
  match result with
  | Error e -> Error e
  | Ok outcome ->
    let events =
      List.filter_map
        (function
          | Obs.Event { Obs.ev_payload = Scc_algo.Scc_event e; _ } -> Some e
          | Obs.Event _ | Obs.Span _ -> None)
        (contents ())
    in
    Ok { outcome; events }

let names (queries : Query.t array) is =
  String.concat ", " (List.map (fun i -> queries.(i).Query.name) is)

let pp_event db queries ppf (event : Scc_algo.event) =
  match event with
  | Scc_algo.Pruned dead ->
    Format.fprintf ppf
      "@[<v2>preprocessing dropped {%s}: unsatisfiable postconditions@]"
      (names queries dead)
  | Scc_algo.Skipped { component } ->
    Format.fprintf ppf "component {%s}: skipped, a needed component failed"
      (names queries component)
  | Scc_algo.Unify_failed { component; failure } ->
    Format.fprintf ppf "component {%s}: %a" (names queries component)
      (Combine.pp_failure queries) failure
  | Scc_algo.Probed { component; members; body; witness } ->
    let sql =
      try Sqlgen.exists db body
      with Sqlgen.Cannot_render m -> "-- cannot render: " ^ m
    in
    Format.fprintf ppf
      "@[<v2>component {%s}: candidate set {%s}@,%s@,=> %s@]"
      (names queries component) (names queries members) sql
      (match witness with
      | Some _ -> "satisfiable: candidate recorded"
      | None -> "unsatisfiable: candidate fails")

(* EXPLAIN ANALYZE: render every cached plan's observed statistics
   against its compile-time estimates.  The caller brackets the solve
   with [with_analyze] so per-step wall-clock columns are populated;
   the counter columns are always on and need no arming. *)
let pp_analyze ppf db =
  let plans = Database.cached_plans db in
  Format.fprintf ppf "@[<v>-- EXPLAIN ANALYZE (%d cached plans) --"
    (List.length plans);
  List.iter
    (fun (_, plan) -> Format.fprintf ppf "@,%a" Plan.pp_analyze plan)
    plans;
  Format.fprintf ppf "@]"

let with_analyze f =
  Plan.set_analyze true;
  Fun.protect ~finally:(fun () -> Plan.set_analyze false) f

let pp db ppf report =
  let queries = report.outcome.Scc_algo.queries in
  Format.fprintf ppf "@[<v>-- SCC coordination trace (%d queries) --"
    (Array.length queries);
  List.iter
    (fun e -> Format.fprintf ppf "@,%a" (pp_event db queries) e)
    report.events;
  (match report.outcome.Scc_algo.solution with
  | None -> Format.fprintf ppf "@,result: no coordinating set"
  | Some s ->
    Format.fprintf ppf "@,result: %a" (Solution.pp queries) s);
  Format.fprintf ppf "@,%a@]" Stats.pp report.outcome.Scc_algo.stats
