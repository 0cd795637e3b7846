open Relational
open Entangled

type error = Not_safe of (int * int) list

type candidate = {
  covered : int list;
  size : int;
  assignment : Eval.valuation;
}

type selection =
  | Largest
  | First_found
  | Preferred of (Query.t array -> candidate -> int)

type outcome = {
  queries : Query.t array;
  graph : Coordination_graph.t;
  candidates : candidate list;
  solution : Solution.t option;
  stats : Stats.t;
  degraded : Resilient.degradation option;
}

type event =
  | Pruned of int list
  | Skipped of { component : int list }
  | Unify_failed of { component : int list; failure : Combine.failure }
  | Probed of {
      component : int list;
      members : int list;
      body : Relational.Cq.t;
      witness : Eval.valuation option;
    }

(* Execution events travel the process-wide Obs stream as typed
   payloads: serializing sinks (--trace) render the args, while
   Explain recovers the full payload from a memory sink — one emission
   point for both. *)
type Obs.payload += Scc_event of event

let names (queries : Query.t array) is =
  String.concat "," (List.map (fun i -> queries.(i).Query.name) is)

let emit name args e = Obs.event ~args ~payload:(Scc_event e) name

let select selection queries candidates =
  let score =
    match selection with
    | Largest -> fun c -> c.size
    | First_found -> fun _ -> 0
    | Preferred f -> f queries
  in
  match candidates with
  | [] -> None
  | first :: rest -> (
    match selection with
    | First_found -> Some first
    | Largest | Preferred _ ->
      let best =
        List.fold_left
          (fun best c -> if score c > score best then c else best)
          first rest
      in
      Some best)

(* ------------------------------------------------------------------ *)
(* Phase 1: database-free analysis                                    *)
(* ------------------------------------------------------------------ *)

type analysis = {
  an_graph : Coordination_graph.t;
  an_alive : bool array;
  an_scc : Graphs.Scc.result;
  an_cond : Graphs.Digraph.t;
}

(* Preprocessing, safety check and SCC condensation of an already-built
   graph (Figure 6 measures these together with the graph's
   construction).  Touches no database. *)
let analyze ?(preprocess = true) (graph : Coordination_graph.t) =
  let queries = graph.queries in
  let n = Array.length queries in
  let alive = Array.make n true in
  if preprocess then
    Obs.with_span "scc.preprocess" (fun () ->
        Coordination_graph.prune_unsatisfiable graph ~alive;
        let dead = List.filter (fun i -> not alive.(i)) (List.init n Fun.id) in
        if dead <> [] then
          emit "scc.pruned"
            (fun () -> [ ("dropped", Obs.Str (names queries dead)) ])
            (Pruned dead));
  let unsafe = Safety.unsafe_posts ~alive graph in
  if unsafe <> [] then Error (Not_safe unsafe)
  else begin
    let scc, condensation =
      Obs.with_span "scc.condense" (fun () ->
          let scc =
            Graphs.Scc.compute_masked graph.graph ~alive:(fun v -> alive.(v))
          in
          (scc, Graphs.Scc.condensation graph.graph scc))
    in
    Ok
      {
        an_graph = graph;
        an_alive = alive;
        an_scc = scc;
        an_cond = condensation;
      }
  end

(* ------------------------------------------------------------------ *)
(* Phase 2: per-component probing                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cx_db : Database.t;
  cx_minimize : bool;
  cx_stats : Stats.t;
  (* Failure/coverage state keyed by SCC id.  A covered SCC keeps its
     whole candidate: the witness seeds its predecessors. *)
  cx_failed : (int, unit) Hashtbl.t;
  cx_covered : (int, candidate) Hashtbl.t;
}

let make_ctx ?(minimize = false) ~stats db =
  {
    cx_db = db;
    cx_minimize = minimize;
    cx_stats = stats;
    cx_failed = Hashtbl.create 32;
    cx_covered = Hashtbl.create 32;
  }

(* How a candidate's unifier was found: seeded from its successors'
   merged witness, or by the full search over R(q). *)
type unified =
  | Seeded of {
      merged : Eval.valuation;
      subst : Subst.t;
      fixed : Eval.valuation;
    }
  | Full of (Subst.t, Combine.failure) result

exception Disagree
exception Coupled

(* The successors' witnesses as one valuation; [None] when two of them
   give a shared variable different values (a diamond one side of which
   took the full search), which leaves the verdict to the full search. *)
let merge_witnesses = function
  | [] -> None
  | [ (w : candidate) ] -> Some w.assignment
  | (w : candidate) :: ws -> (
    let agree _ u v = if Value.equal u v then Some u else raise Disagree in
    try
      Some
        (List.fold_left
           (fun acc (w : candidate) ->
             Eval.Binding.union agree acc w.assignment)
           w.assignment ws)
    with Disagree -> None)

(* Seeded candidates.  When every successor of SCC [c] is covered, R(c)
   is [c]'s own members plus the successors' covered sets, and each of
   those already has a witness.  Unifying only [c]'s own postconditions
   (with their heads inside R(c)) gives sigma.  If every sigma class that
   holds a successor variable holds exactly that one successor variable,
   no constant and no variable of [c]'s own bodies, then [c]'s
   constraints only read the successors' values: the solutions of R(c)
   are the product of the successors' solutions and those of [c]'s own
   bodies under sigma.  So grounding [c]'s own bodies alone, with each
   linking class fixed to its successor variable's witnessed value, gives
   exactly the full search's verdict, and the full unifier cannot clash.
   [None]: this rule does not apply (a coupled SCC such as Figure 1's
   qJ, disagreeing witnesses, or an own unification failure, which the
   full search then reports in its own words). *)
let seed a c ~own ~successors witnesses =
  let g = a.an_graph in
  let comp = a.an_scc.component in
  let succ d = List.mem comp.(d) successors in
  match
    ( merge_witnesses witnesses,
      Combine.unify_posts g ~in_set:(fun d -> comp.(d) = c || succ d)
        ~members:own )
  with
  | None, _ | _, Error _ -> None
  | Some merged, Ok subst -> (
    (* class representative -> the one successor variable in its class;
       one entry per successor variable in [c]'s posts, a handful *)
    let links = ref [] in
    let link = function
      | Term.Const _ -> ()
      | Term.Var y as t -> (
        match Subst.resolve subst t with
        | Term.Const _ -> raise Coupled
        | Term.Var r -> (
          match List.assoc r !links with
          | y' -> if not (String.equal y' y) then raise Coupled
          | exception Not_found -> links := (r, y) :: !links))
    in
    let unlinked = function
      | Term.Const _ -> ()
      | Term.Var _ as t -> (
        match Subst.resolve subst t with
        | Term.Var r when List.mem_assoc r !links -> raise Coupled
        | _ -> ())
    in
    try
      List.iter
        (fun q ->
          List.iteri
            (fun pi (_ : Cq.atom) ->
              List.iter
                (fun (d, hi) ->
                  if succ d then
                    Array.iter link
                      (List.nth g.queries.(d).Query.head hi).Cq.args)
                (Coordination_graph.post_targets g ~src:q ~post_index:pi))
            g.queries.(q).Query.post)
        own;
      List.iter
        (fun q ->
          List.iter
            (fun (at : Cq.atom) -> Array.iter unlinked at.args)
            g.queries.(q).Query.body.Cq.atoms)
        own;
      let fixed =
        List.fold_left
          (fun acc (r, y) -> Eval.Binding.add r (Eval.Binding.find y merged) acc)
          Eval.Binding.empty !links
      in
      Some (Seeded { merged; subst; fixed })
    with Coupled | Not_found -> None)

(* The union of two strictly ascending lists, strictly ascending;
   [dups] counts the elements both hold.  The walk stops as soon as
   either list runs out and shares the other's rest, so merging an SCC's
   own members into a successor's cover that starts after them costs
   O(own), not O(cover). *)
let union dups xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (x : int) :: xs', y :: ys' ->
      if x < y then x :: go xs' ys
      else if y < x then y :: go xs ys'
      else begin
        incr dups;
        x :: go xs' ys'
      end
  in
  go xs ys

(* One component, in reverse topological order relative to its
   predecessors in the same ctx: probe the candidate set R(q), record
   failure/coverage, return the candidate when the combined query is
   satisfiable.  The probe is seeded from the successors' witnesses when
   [seed] allows it and is the full search over R(q) otherwise;
   either way it is exactly one database probe.  Raises
   [Resilient.Abort] through (budget aborts are the caller's policy
   decision). *)
let probe_component ctx a c =
  let queries = a.an_graph.queries in
  let scc = a.an_scc in
  let stats = ctx.cx_stats in
  let own = scc.members.(c) in
  let successors = Graphs.Digraph.successors a.an_cond c in
  if List.exists (fun s -> Hashtbl.mem ctx.cx_failed s) successors then begin
    Hashtbl.replace ctx.cx_failed c ();
    emit "scc.skipped"
      (fun () -> [ ("component", Obs.Str (names queries own)) ])
      (Skipped { component = own });
    None
  end
  else begin
    let witnesses =
      List.filter_map (Hashtbl.find_opt ctx.cx_covered) successors
    in
    let dups = ref 0 in
    let members =
      List.fold_left
        (fun acc (w : candidate) -> union dups acc w.covered)
        (List.sort Int.compare own) witnesses
    in
    (* |R(c)| without walking it: every element a merge finds twice
       was counted in both inputs' sizes. *)
    let size =
      List.fold_left
        (fun n (w : candidate) -> n + w.size)
        (List.length own - !dups) witnesses
    in
    let args ms () = [ ("members", Obs.Str (names queries ms)) ] in
    let unify f =
      let unified, unify_ns =
        Obs.timed_span ~args:(args members) "scc.unify" f
      in
      stats.unify_ns <- Int64.add stats.unify_ns unify_ns;
      unified
    in
    let ground ?fixed ~grounded subst =
      let witness, ground_ns =
        Obs.timed_span ~args:(args grounded) "scc.ground" (fun () ->
            Ground.solve ~minimize:ctx.cx_minimize ?fixed ctx.cx_db queries
              ~members:grounded subst)
      in
      stats.ground_ns <- Int64.add stats.ground_ns ground_ns;
      stats.candidates <- stats.candidates + 1;
      stats.grounded_members <- stats.grounded_members + List.length grounded;
      witness
    in
    let record ~body witness =
      if Obs.tracing () then
        emit "scc.probed"
          (fun () ->
            [
              ("members", Obs.Str (names queries members));
              ("witness", Obs.Bool (Option.is_some witness));
            ])
          (Probed { component = own; members; body = body (); witness });
      match witness with
      | None ->
        Hashtbl.replace ctx.cx_failed c ();
        None
      | Some assignment ->
        let cand = { covered = members; size; assignment } in
        Hashtbl.replace ctx.cx_covered c cand;
        Some cand
    in
    let seedable =
      successors <> [] && List.compare_lengths witnesses successors = 0
    in
    let unified =
      unify (fun () ->
          match
            if seedable then seed a c ~own ~successors witnesses else None
          with
          | Some seeded -> seeded
          | None -> Full (Combine.unify_set a.an_graph ~members))
    in
    let full_body subst () = Combine.combined_body a.an_graph ~members subst in
    match unified with
    | Seeded { merged; subst; fixed } ->
      (* Under tracing, [Probed] still carries the combined body of R(q),
         which [Explain] renders as the SQL the full search would send. *)
      let body () =
        match Combine.unify_set a.an_graph ~members with
        | Ok full -> full_body full ()
        | Error _ -> Combine.combined_body a.an_graph ~members:own subst
      in
      record ~body
        (Option.map
           (fun mine -> Eval.Binding.fold Eval.Binding.add mine merged)
           (ground ~fixed ~grounded:own subst))
    | Full (Error failure) ->
      Hashtbl.replace ctx.cx_failed c ();
      emit "scc.unify_failed"
        (fun () -> [ ("component", Obs.Str (names queries own)) ])
        (Unify_failed { component = own; failure });
      None
    | Full (Ok subst) ->
      record ~body:(full_body subst) (ground ~grounded:members subst)
  end

(* ------------------------------------------------------------------ *)
(* The sequential solver                                              *)
(* ------------------------------------------------------------------ *)

(* [solve_graph] times itself: [graph_ns] is the analysis, [total_ns]
   the whole call.  A caller that built [graph] adds the construction
   to both. *)
let solve_graph ?(selection = Largest) ?(preprocess = true)
    ?(graph_only = false) ?(minimize = false) db (graph : Coordination_graph.t)
    =
  let queries = graph.queries in
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let counters0 = Database.snapshot_counters db in
  let finish result =
    stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  (* Phase 1: preprocessing and SCCs. *)
  match analyze ~preprocess graph with
  | Error e -> finish (Error e)
  | Ok a ->
    let scc = a.an_scc in
    stats.graph_ns <- Int64.sub (Stats.now_ns ()) t_start;
    if graph_only then
      finish
        (Ok
           {
             queries;
             graph;
             candidates = [];
             solution = None;
             stats;
             degraded = None;
           })
    else begin
      (* Phase 2: process components in reverse topological order.  Our
         SCC ids are numbered sinks-first, so ascending id order is
         exactly that. *)
      let ctx = make_ctx ~minimize ~stats db in
      let candidates = ref [] in
      let degraded = ref None in
      let exception Done in
      (try
         for c = 0 to scc.count - 1 do
           (* A guard abort mid-component keeps every candidate already
              probed: components from [c] on are reported unprobed, the
              prefix stands. *)
           try
             match probe_component ctx a c with
             | None -> ()
             | Some cand ->
               candidates := cand :: !candidates;
               (* Under first-found selection, later components cannot
                  change the answer: stop probing the database. *)
               (match selection with
               | First_found -> raise Done
               | Largest | Preferred _ -> ())
           with Resilient.Abort reason ->
             let unprobed =
               List.init (scc.count - c) (fun i -> scc.members.(c + i))
             in
             degraded :=
               Some
                 (Resilient.degraded ~unprobed
                    ~note:
                      (Printf.sprintf "%d of %d components unprobed"
                         (List.length unprobed) scc.count)
                    reason);
             raise Done
         done
       with Done -> ());
      let candidates = List.rev !candidates in
      let solution =
        Option.map
          (fun c -> Solution.make ~members:c.covered ~assignment:c.assignment)
          (select selection queries candidates)
      in
      finish
        (Ok
           { queries; graph; candidates; solution; stats; degraded = !degraded })
    end

let solve ?selection ?preprocess ?graph_only ?minimize db input =
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "scc.solve"
  @@ fun () ->
  let t_start = Stats.now_ns () in
  let queries = Query.rename_set input in
  let t_graph = Stats.now_ns () in
  let graph =
    Obs.with_span "scc.graph" (fun () -> Coordination_graph.build queries)
  in
  let t_built = Stats.now_ns () in
  let result =
    solve_graph ?selection ?preprocess ?graph_only ?minimize db graph
  in
  Result.iter
    (fun o ->
      let s = o.stats in
      s.graph_ns <- Int64.add s.graph_ns (Int64.sub t_built t_graph);
      s.total_ns <- Int64.add s.total_ns (Int64.sub t_built t_start))
    result;
  result
