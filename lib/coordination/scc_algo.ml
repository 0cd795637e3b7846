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

let prune (graph : Coordination_graph.t) alive =
  Coordination_graph.prune_unsatisfiable graph ~alive;
  if Obs.enabled () && not (Array.for_all Fun.id alive) then begin
    let queries = graph.queries in
    let dead =
      List.filter
        (fun i -> not alive.(i))
        (List.init (Array.length alive) Fun.id)
    in
    emit "scc.pruned"
      (fun () -> [ ("dropped", Obs.Str (names queries dead)) ])
      (Pruned dead)
  end

let condense (graph : Coordination_graph.t) alive =
  let scc = Graphs.Scc.compute_masked graph.graph ~alive:(Array.get alive) in
  {
    an_graph = graph;
    an_alive = alive;
    an_scc = scc;
    an_cond = Graphs.Scc.condensation graph.graph scc;
  }

(* Preprocessing, safety check and SCC condensation of an already-built
   graph (Figure 6 measures these together with the graph's
   construction).  Touches no database. *)
let analyze ?(preprocess = true) (graph : Coordination_graph.t) =
  let alive = Array.make (Array.length graph.queries) true in
  if preprocess then
    Obs.with_span "scc.preprocess" (fun () -> prune graph alive);
  match Safety.unsafe_posts ~alive graph with
  | [] -> Ok (Obs.with_span "scc.condense" (fun () -> condense graph alive))
  | unsafe -> Error (Not_safe unsafe)

(* ------------------------------------------------------------------ *)
(* Phase 2: per-component probing                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cx_db : Database.t;
  cx_minimize : bool;
  cx_stats : Stats.t;
  cx_an : analysis;
  (* Failure/coverage state by SCC id.  A covered SCC keeps its whole
     candidate: the witness seeds its predecessors. *)
  cx_failed : bool array;
  cx_covered : candidate option array;
  (* unify and ground time, folded into [cx_stats] by [finish_ctx] *)
  mutable cx_unify_ns : int;
  mutable cx_ground_ns : int;
  mutable cx_clock : int;  (* the int clock as the unify phase ended, or -1 *)
  (* The component being probed: its successors, their covering
     candidates and R(q); then the members grounded. *)
  mutable cx_successors : int list;
  mutable cx_witnesses : candidate list;
  mutable cx_members : int list;
  mutable cx_grounded : int list;
}

let make_ctx ?(minimize = false) ~stats db (a : analysis) =
  {
    cx_db = db;
    cx_minimize = minimize;
    cx_stats = stats;
    cx_an = a;
    cx_failed = Array.make a.an_scc.count false;
    cx_covered = Array.make a.an_scc.count None;
    cx_unify_ns = 0;
    cx_ground_ns = 0;
    cx_clock = -1;
    cx_successors = [];
    cx_witnesses = [];
    cx_members = [];
    cx_grounded = [];
  }

let finish_ctx ctx =
  let stats = ctx.cx_stats in
  stats.unify_ns <- Int64.add stats.unify_ns (Int64.of_int ctx.cx_unify_ns);
  stats.ground_ns <- Int64.add stats.ground_ns (Int64.of_int ctx.cx_ground_ns)

(* How a candidate's unifier was found: seeded from its successors'
   merged witness, or by the full search over R(q). *)
type unified =
  | Seeded of {
      merged : Eval.valuation;
      subst : Subst.t;
      fixed : (string * Value.t) list;
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

let rec mem_int (x : int) = function [] -> false | y :: l -> x = y || mem_int x l

let rec mem_var x = function
  | [] -> false
  | (y, _) :: rest -> String.equal x y || mem_var x rest

let rec assoc_var x = function
  | [] -> None
  | (y, v) :: rest -> if String.equal x y then Some v else assoc_var x rest

(* Record that the class of each variable of a successor's head atom
   holds that one successor variable: [links] maps class
   representatives to it.  [Coupled] when a class holds a constant or
   two successor variables. *)
let rec link subst links (args : Term.t array) i =
  if i = Array.length args then links
  else
    let links =
      match args.(i) with
      | Term.Const _ -> links
      | Term.Var y as t -> (
        match Subst.resolve subst t with
        | Term.Const _ -> raise_notrace Coupled
        | Term.Var r -> (
          match assoc_var r links with
          | Some y' -> if String.equal y' y then links else raise_notrace Coupled
          | None -> (r, y) :: links))
    in
    link subst links args (i + 1)

let rec link_targets (g : Coordination_graph.t) comp successors subst links =
  function
  | [] -> links
  | (d, hi) :: rest ->
    let links =
      if mem_int comp.(d) successors then
        link subst links (List.nth g.queries.(d).Query.head hi).Cq.args 0
      else links
    in
    link_targets g comp successors subst links rest

let rec link_posts g comp successors subst links q pi = function
  | [] -> links
  | (_ : Cq.atom) :: rest ->
    let targets = Coordination_graph.post_targets g ~src:q ~post_index:pi in
    link_posts g comp successors subst
      (link_targets g comp successors subst links targets)
      q (pi + 1) rest

let rec link_members (g : Coordination_graph.t) comp successors subst links =
  function
  | [] -> links
  | q :: rest ->
    link_members g comp successors subst
      (link_posts g comp successors subst links q 0 g.queries.(q).Query.post)
      rest

(* [Coupled] when a variable of the members' bodies is in a linked
   class. *)
let rec unlinked_args subst links (args : Term.t array) i =
  if i < Array.length args then begin
    (match args.(i) with
    | Term.Const _ -> ()
    | Term.Var _ as t -> (
      match Subst.resolve subst t with
      | Term.Var r when mem_var r links -> raise_notrace Coupled
      | _ -> ()));
    unlinked_args subst links args (i + 1)
  end

let rec unlinked_atoms subst links = function
  | [] -> ()
  | (a : Cq.atom) :: rest ->
    unlinked_args subst links a.args 0;
    unlinked_atoms subst links rest

let rec unlinked (g : Coordination_graph.t) subst links = function
  | [] -> ()
  | q :: rest ->
    unlinked_atoms subst links g.queries.(q).Query.body.Cq.atoms;
    unlinked g subst links rest

(* Each linking class's value: its successor variable's, from the
   merged witness. *)
let rec fix merged = function
  | [] -> []
  | (r, y) :: rest -> (r, Eval.Binding.find y merged) :: fix merged rest

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
  match merge_witnesses witnesses with
  | None -> None
  | Some merged -> (
    let in_set d =
      let k = comp.(d) in
      k = c || mem_int k successors
    in
    match Combine.unify_posts g ~in_set ~members:own with
    | Error _ -> None
    | Ok subst -> (
      try
        let links = link_members g comp successors subst [] own in
        unlinked g subst links own;
        Some (Seeded { merged; subst; fixed = fix merged links })
      with Coupled | Not_found -> None))

(* The union of two strictly ascending lists, strictly ascending;
   [dups] counts the elements both hold.  The walk stops as soon as
   either list runs out and shares the other's rest, so merging an
   SCC's own members into a successor's cover that starts after them
   costs O(own), not O(cover). *)
let dups = ref 0

let rec union xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (x : int) :: xs', y :: ys' ->
    if x < y then x :: union xs' ys
    else if y < x then y :: union xs ys'
    else begin
      incr dups;
      x :: union xs' ys'
    end

let rec covered_witnesses ctx = function
  | [] -> []
  | s :: rest -> (
    match ctx.cx_covered.(s) with
    | Some w -> w :: covered_witnesses ctx rest
    | None -> covered_witnesses ctx rest)

let rec any_failed ctx = function
  | [] -> false
  | s :: rest -> ctx.cx_failed.(s) || any_failed ctx rest

let charge ctx ~ground ns =
  if ground then ctx.cx_ground_ns <- ctx.cx_ground_ns + ns
  else ctx.cx_unify_ns <- ctx.cx_unify_ns + ns

(* [f ctx x], timed as the unify or the ground phase inside span
   [name] (with [args ctx]): one reading of the int clock per boundary
   feeds both [cx_stats] and the span, and the ground phase starts at
   the unify phase's closing read ([cx_clock]), so a component costs
   three reads.  A budget abort inside still closes the span. *)
let phase ctx ~ground name args f x =
  let d = Obs.enter () in
  let t0 =
    if ground && ctx.cx_clock >= 0 then ctx.cx_clock else Obs.now_ns_int ()
  in
  ctx.cx_clock <- -1;
  match f ctx x with
  | v ->
    let t1 = Obs.leave_with d name ~t0 args ctx in
    charge ctx ~ground (t1 - t0);
    if not ground then ctx.cx_clock <- t1;
    v
  | exception e ->
    ignore (Obs.leave_with d name ~t0 args ctx : int);
    raise e

let members_arg members ctx =
  [ ("members", Obs.Str (names ctx.cx_an.an_graph.queries members)) ]

let unify_args ctx = members_arg ctx.cx_members ctx

let ground_args ctx = members_arg ctx.cx_grounded ctx

let unify_component ctx c =
  let a = ctx.cx_an and successors = ctx.cx_successors in
  let witnesses = ctx.cx_witnesses in
  match
    if successors <> [] && List.compare_lengths witnesses successors = 0 then
      seed a c ~own:a.an_scc.members.(c) ~successors witnesses
    else None
  with
  | Some seeded -> seeded
  | None -> Full (Combine.unify_set a.an_graph ~members:ctx.cx_members)

let ground_unified ctx = function
  | Seeded { merged; subst; fixed } ->
    Ground.solve ~minimize:ctx.cx_minimize ~fixed ~into:merged ctx.cx_db
      ctx.cx_an.an_graph.queries ~members:ctx.cx_grounded subst
  | Full (Ok subst) ->
    Ground.solve ~minimize:ctx.cx_minimize ctx.cx_db ctx.cx_an.an_graph.queries
      ~members:ctx.cx_grounded subst
  | Full (Error _) -> assert false

(* The combined body of R(q) that [Probed] carries under tracing, which
   [Explain] renders as the SQL the full search would send; a seeded
   candidate's too. *)
let probed_body ctx c unified =
  let g = ctx.cx_an.an_graph and members = ctx.cx_members in
  match unified with
  | Full (Ok subst) -> Combine.combined_body g ~members subst
  | Seeded { subst; _ } -> (
    match Combine.unify_set g ~members with
    | Ok full -> Combine.combined_body g ~members full
    | Error _ ->
      Combine.combined_body g ~members:ctx.cx_an.an_scc.members.(c) subst)
  | Full (Error _) -> assert false

(* Ground [grounded] under [unified] and record the verdict. *)
let ground_component ctx c ~grounded unified =
  let stats = ctx.cx_stats and members = ctx.cx_members in
  ctx.cx_grounded <- grounded;
  let witness =
    phase ctx ~ground:true "scc.ground" ground_args ground_unified unified
  in
  stats.candidates <- stats.candidates + 1;
  stats.grounded_members <- stats.grounded_members + List.length grounded;
  if Obs.tracing () then begin
    let own = ctx.cx_an.an_scc.members.(c) in
    emit "scc.probed"
      (fun () ->
        [
          ("members", Obs.Str (names ctx.cx_an.an_graph.queries members));
          ("witness", Obs.Bool (Option.is_some witness));
        ])
      (Probed
         { component = own; members; body = probed_body ctx c unified; witness })
  end;
  match witness with
  | None ->
    ctx.cx_failed.(c) <- true;
    None
  | Some assignment ->
    (* |R(c)| without walking it: every element a merge finds twice
       was counted in both inputs' sizes. *)
    let size =
      List.fold_left
        (fun n (w : candidate) -> n + w.size)
        (List.length ctx.cx_an.an_scc.members.(c) - !dups)
        ctx.cx_witnesses
    in
    let cand = { covered = members; size; assignment } in
    ctx.cx_covered.(c) <- Some cand;
    Some cand

(* One component, in reverse topological order relative to its
   predecessors in the same ctx: probe the candidate set R(q), record
   failure/coverage, return the candidate when the combined query is
   satisfiable.  The probe is seeded from the successors' witnesses when
   [seed] allows it and is the full search over R(q) otherwise;
   either way it is exactly one database probe.  Raises
   [Resilient.Abort] through (budget aborts are the caller's policy
   decision). *)
let probe_component ctx c =
  let a = ctx.cx_an in
  let queries = a.an_graph.queries in
  let own = a.an_scc.members.(c) in
  let successors = Graphs.Digraph.successors a.an_cond c in
  if any_failed ctx successors then begin
    ctx.cx_failed.(c) <- true;
    if Obs.enabled () then
      emit "scc.skipped"
        (fun () -> [ ("component", Obs.Str (names queries own)) ])
        (Skipped { component = own });
    None
  end
  else begin
    let witnesses = covered_witnesses ctx successors in
    dups := 0;
    let members =
      List.fold_left
        (fun acc (w : candidate) -> union acc w.covered)
        (List.sort Int.compare own) witnesses
    in
    ctx.cx_successors <- successors;
    ctx.cx_witnesses <- witnesses;
    ctx.cx_members <- members;
    match phase ctx ~ground:false "scc.unify" unify_args unify_component c with
    | Seeded _ as seeded -> ground_component ctx c ~grounded:own seeded
    | Full (Error failure) ->
      ctx.cx_failed.(c) <- true;
      if Obs.enabled () then
        emit "scc.unify_failed"
          (fun () -> [ ("component", Obs.Str (names queries own)) ])
          (Unify_failed { component = own; failure });
      None
    | Full (Ok _) as full -> ground_component ctx c ~grounded:members full
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
  let t_start = Obs.now_ns_int () in
  let counters0 = Database.snapshot_counters db in
  let finish result =
    stats.total_ns <- Int64.of_int (Obs.now_ns_int () - t_start);
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  (* Phase 1: preprocessing and SCCs. *)
  match analyze ~preprocess graph with
  | Error e -> finish (Error e)
  | Ok a ->
    let scc = a.an_scc in
    stats.graph_ns <- Int64.of_int (Obs.now_ns_int () - t_start);
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
      let ctx = make_ctx ~minimize ~stats db a in
      let candidates = ref [] in
      let degraded = ref None in
      let exception Done in
      (try
         for c = 0 to scc.count - 1 do
           (* A guard abort mid-component keeps every candidate already
              probed: components from [c] on are reported unprobed, the
              prefix stands. *)
           try
             match probe_component ctx c with
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
      finish_ctx ctx;
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
  let t_start = Obs.now_ns_int () in
  let queries = Query.rename_set input in
  let d = Obs.enter () in
  let t_graph = Obs.now_ns_int () in
  let graph = Coordination_graph.build queries in
  let t_built = Obs.leave d "scc.graph" ~t0:t_graph in
  let result =
    solve_graph ?selection ?preprocess ?graph_only ?minimize db graph
  in
  Result.iter
    (fun o ->
      let s = o.stats in
      s.graph_ns <- Int64.add s.graph_ns (Int64.of_int (t_built - t_graph));
      s.total_ns <- Int64.add s.total_ns (Int64.of_int (t_built - t_start)))
    result;
  result
