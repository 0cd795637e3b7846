open Relational
open Entangled

let max_queries = 20

let check_size n =
  if n > max_queries then
    invalid_arg
      (Printf.sprintf "Brute: %d queries exceed the limit of %d" n max_queries)

(* All (post, candidate-heads) obligations of a subset; [None] when some
   postcondition has no candidate inside the subset. *)
let obligations (graph : Coordination_graph.t) ~members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace in_set q ()) members;
  let exception No_candidate in
  try
    Some
      (List.concat_map
         (fun q ->
           List.mapi
             (fun pi (_ : Cq.atom) ->
               let targets =
                 List.filter
                   (fun (d, _) -> Hashtbl.mem in_set d)
                   (Coordination_graph.post_targets graph ~src:q ~post_index:pi)
               in
               if targets = [] then raise No_candidate;
               (q, pi, targets))
             graph.queries.(q).Query.post)
         members)
  with No_candidate -> None

(* Each slot's class and constant: equal signatures, equal unifiers. *)
let signature t ~members =
  List.concat_map
    (fun m ->
      List.init
        (Combine.offset t (m + 1) - Combine.offset t m)
        (fun j ->
          let r = Combine.find t (Combine.offset t m + j) in
          (r, Combine.value t r)))
    members

(* Does this exact subset coordinate?  Tries every assignment of heads
   to postconditions; on the first unifiable choice whose combined body
   is satisfiable, returns the full Definition-1 assignment. *)
let solve_subset db (graph : Coordination_graph.t) ~members =
  match obligations graph ~members with
  | None -> None
  | Some obligations ->
    let t = Combine.start graph in
    let result = ref None in
    let rec assign = function
      | [] -> result := Ground.valuation db t ~members
      | (q, pi, targets) :: rest ->
        (* Distinct candidate heads often induce the same unifier (e.g.
           ground gadget atoms); exploring duplicates multiplies the
           search for nothing. *)
        let tried = ref [] in
        List.iter
          (fun (d, hi) ->
            if !result = None then begin
              let m = Combine.mark t in
              if Combine.unify_post t ~src:q ~post_index:pi ~dst:d ~head_index:hi
              then begin
                let s = signature t ~members in
                if not (List.mem s !tried) then begin
                  tried := s :: !tried;
                  assign rest
                end
              end;
              Combine.undo t m
            end)
          targets
    in
    assign obligations;
    !result

(* Brute search has no phases worth timing separately; when a stats
   record is supplied we account the whole call as ground time plus the
   engine-counter delta. *)
let with_stats stats db f =
  match stats with
  | None -> f ()
  | Some stats ->
    let t0 = Obs.now_ns_int () in
    let counters0 = Database.snapshot_counters db in
    let finally () =
      let span = Int64.of_int (Obs.now_ns_int () - t0) in
      stats.Stats.ground_ns <- Int64.add stats.Stats.ground_ns span;
      stats.Stats.total_ns <- Int64.add stats.Stats.total_ns span;
      Stats.add_counters stats
        (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db))
    in
    Fun.protect ~finally f

let subsets_by_size n =
  let masks = List.init ((1 lsl n) - 1) (fun i -> i + 1) in
  let popcount m =
    let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
    loop m 0
  in
  List.stable_sort (fun a b -> Int.compare (popcount a) (popcount b)) masks

let members_of_mask n mask =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)

let span_args n () = [ ("queries", Obs.Int n); ("subsets", Obs.Int ((1 lsl n) - 1)) ]

let exists_coordinating_set ?stats db queries =
  let n = Array.length queries in
  check_size n;
  Obs.with_span ~args:(span_args n) "brute.exists" @@ fun () ->
  with_stats stats db @@ fun () ->
  let graph = Obs.with_span "brute.graph" (fun () -> Coordination_graph.build queries) in
  Obs.with_span "brute.enumerate" @@ fun () ->
  List.exists
    (fun mask ->
      Option.is_some (solve_subset db graph ~members:(members_of_mask n mask)))
    (subsets_by_size n)

let maximum ?stats db queries =
  let n = Array.length queries in
  check_size n;
  Obs.with_span ~args:(span_args n) "brute.maximum" @@ fun () ->
  with_stats stats db @@ fun () ->
  let graph = Obs.with_span "brute.graph" (fun () -> Coordination_graph.build queries) in
  Obs.with_span "brute.enumerate" @@ fun () ->
  let rec loop = function
    | [] -> None
    | mask :: rest -> (
      let members = members_of_mask n mask in
      match solve_subset db graph ~members with
      | Some assignment -> Some (Solution.make ~members ~assignment)
      | None -> loop rest)
  in
  loop (List.rev (subsets_by_size n))

type outcome = {
  solution : Solution.t option;
  stats : Stats.t;
  degraded : Resilient.degradation option;
}

let solve db queries =
  let n = Array.length queries in
  check_size n;
  Obs.with_span ~args:(span_args n) "brute.solve" @@ fun () ->
  let stats = Stats.create () in
  with_stats (Some stats) db @@ fun () ->
  let graph =
    Obs.with_span "brute.graph" (fun () -> Coordination_graph.build queries)
  in
  Obs.with_span "brute.enumerate" @@ fun () ->
  let total = (1 lsl n) - 1 in
  let rec loop = function
    | [] -> { solution = None; stats; degraded = None }
    | mask :: rest -> (
      let members = members_of_mask n mask in
      match solve_subset db graph ~members with
      | Some assignment ->
        { solution = Some (Solution.make ~members ~assignment);
          stats;
          degraded = None }
      | None -> loop rest
      | exception Resilient.Abort reason ->
        (* The exhaustive tail is exponential; list only the first few
           unprobed subsets (largest first, like the search order). *)
        let remaining = mask :: rest in
        let unprobed =
          List.filteri (fun i _ -> i < 8) remaining
          |> List.map (members_of_mask n)
        in
        { solution = None;
          stats;
          degraded =
            Some
              (Resilient.degraded ~unprobed
                 ~note:
                   (Printf.sprintf "%d of %d subsets unprobed"
                      (List.length remaining) total)
                 reason) })
  in
  loop (List.rev (subsets_by_size n))

let all_coordinating_subsets ?stats db queries =
  let n = Array.length queries in
  check_size n;
  Obs.with_span ~args:(span_args n) "brute.all_subsets" @@ fun () ->
  with_stats stats db @@ fun () ->
  let graph = Obs.with_span "brute.graph" (fun () -> Coordination_graph.build queries) in
  Obs.with_span "brute.enumerate" @@ fun () ->
  List.filter_map
    (fun mask ->
      let members = members_of_mask n mask in
      match solve_subset db graph ~members with
      | Some _ -> Some members
      | None -> None)
    (subsets_by_size n)
