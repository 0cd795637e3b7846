open Relational
open Entangled

type error = Not_safe of (int * int) list

type candidate = {
  covered : int list;
  size : int;
  values : Combine.values;
}

type selection =
  | Largest
  | First_found
  | Preferred of (Query.t array -> candidate -> int)

type outcome = {
  queries : Query.t array;
  graph : Coordination_graph.t;
  candidates : candidate list;
  selected : candidate option;
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

let no_args _ _ = []

(* Preprocessing, safety check and SCC condensation of an already-built
   graph (Figure 6 measures these together with the graph's
   construction).  Touches no database. *)
let analyze ?(preprocess = true) (graph : Coordination_graph.t) =
  let alive = Array.make (Array.length graph.queries) true in
  if preprocess then Obs.span "scc.preprocess" no_args prune graph alive;
  match Safety.unsafe_posts ~alive graph with
  | [] -> Ok (Obs.span "scc.condense" no_args condense graph alive)
  | unsafe -> Error (Not_safe unsafe)

(* ------------------------------------------------------------------ *)
(* Phase 2: per-component probing                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cx_db : Database.t;
  cx_minimize : bool;
  cx_stats : Stats.t;
  cx_an : analysis;
  cx_ids : int array option;
  (* The run of values a full search over an SCC alone writes into. *)
  cx_shared : Combine.values;
  (* Failure/coverage state by SCC id.  A covered SCC keeps its whole
     candidate: the witness seeds its predecessors. *)
  cx_failed : bool array;
  cx_covered : candidate option array;
  (* unify and ground time, folded into [cx_stats] by [finish_ctx] *)
  mutable cx_unify_ns : int;
  mutable cx_ground_ns : int;
  mutable cx_clock : int;  (* the int clock as the last phase ended, or -1 *)
  (* The component being probed: its successors, their covering
     candidates and R(q); then the members grounded. *)
  mutable cx_successors : int list;
  mutable cx_witnesses : candidate list;
  mutable cx_members : int list;
  mutable cx_grounded : int list;
}

let make_ctx ?(minimize = false) ?ids ~stats db (a : analysis) =
  let t = Combine.layout a.an_graph in
  {
    cx_db = db;
    cx_minimize = minimize;
    cx_stats = stats;
    cx_an = a;
    cx_ids = ids;
    cx_shared =
      Combine.values ~base:0
        ~len:(Combine.offset t (Array.length a.an_graph.queries));
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
   witnesses, whose merged values its own members extend, or by the
   full search over R(q).  Either way the unifier is {!Combine}'s
   scratch. *)
type unified =
  | Seeded of Combine.values
  | Full of (Combine.t, Combine.failure) result

exception Disagree
exception Coupled

let rec mem_int (x : int) = function [] -> false | y :: l -> x = y || mem_int x l

let rec same_values vs = function
  | [] -> true
  | (w : candidate) :: rest -> w.values == vs && same_values vs rest

(* The slot run of a member list: from the first slot of its least
   member to the end of its greatest. *)
let lo_slot t ms = Combine.offset t (List.fold_left Int.min max_int ms)

let hi_slot t ms = Combine.offset t (List.fold_left Int.max (-1) ms + 1)

let fresh_values t members =
  let base = lo_slot t members in
  Combine.values ~base ~len:(hi_slot t members - base)

(* Copy a successor's covered values into [into]; [Disagree] when a
   member another successor also covers took different values there. *)
let copy_covered t (into : Combine.values) (w : candidate) =
  List.iter
    (fun m ->
      for s = Combine.offset t m to Combine.offset t (m + 1) - 1 do
        let v = Combine.get w.values s and i = s - into.base in
        let u = into.v.(i) in
        if Combine.is_unset u then into.v.(i) <- v
        else if not (Value.equal u v) then raise_notrace Disagree
      done)
    w.covered

(* The successors' witnesses as one run of values that [own]'s slots
   extend.  Every slot of a run is written once (a seeded candidate
   writes only its own SCC, a full search a fresh run or the first
   use of the shared one), so successors sharing one run agree, and
   when it also spans [own] the run itself is extended in place.
   Otherwise a fresh run over R(q) [members] takes a copy; [None] when
   two successors give a shared member different values (a diamond one
   side of which took the full search), which leaves the verdict to the
   full search. *)
let merge_witnesses t ~members ~own = function
  | [] -> None
  | (w : candidate) :: ws as all ->
    let vs = w.values in
    if
      same_values vs ws
      && vs.base <= lo_slot t own
      && hi_slot t own <= vs.base + Array.length vs.v
    then Some vs
    else
      let into = fresh_values t members in
      match List.iter (copy_covered t into) all with
      | () -> Some into
      | exception Disagree -> None

(* Fix the class of each variable of a successor's head atom (coded
   from [c]) to that successor variable's value in [merged].
   [Coupled] when a class holds a constant or two successor
   variables. *)
let rec link t merged c i n =
  if i < n then begin
    (match Combine.code t (c + i) with
    | -1 -> ()
    | y ->
      let v = Combine.get merged y in
      if Combine.is_unset v || not (Combine.link t y v) then
        raise_notrace Coupled);
    link t merged c (i + 1) n
  end

let rec link_targets t (g : Coordination_graph.t) comp successors merged =
  function
  | [] -> ()
  | (d, hi) :: rest ->
    if mem_int comp.(d) successors then begin
      let h = List.nth g.queries.(d).Query.head hi in
      link t merged (Combine.head_code t d hi) 0 (Array.length h.Cq.args)
    end;
    link_targets t g comp successors merged rest

let rec link_posts t g comp successors merged q pi = function
  | [] -> ()
  | (_ : Cq.atom) :: rest ->
    link_targets t g comp successors merged
      (Coordination_graph.post_targets g ~src:q ~post_index:pi);
    link_posts t g comp successors merged q (pi + 1) rest

let rec link_members t (g : Coordination_graph.t) comp successors merged =
  function
  | [] -> ()
  | q :: rest ->
    link_posts t g comp successors merged q 0 g.queries.(q).Query.post;
    link_members t g comp successors merged rest

(* [Coupled] when a variable of the members' bodies is in a linked
   class. *)
let rec unlinked_atoms t c = function
  | [] -> ()
  | (a : Cq.atom) :: rest ->
    for i = 0 to Array.length a.args - 1 do
      match Combine.code t (c + i) with
      | -1 -> ()
      | s -> if Combine.linked t s then raise_notrace Coupled
    done;
    unlinked_atoms t (c + Array.length a.args) rest

let rec unlinked t (g : Coordination_graph.t) = function
  | [] -> ()
  | q :: rest ->
    unlinked_atoms t (Combine.body_code t q) g.queries.(q).Query.body.Cq.atoms;
    unlinked t g rest

(* Unify [c]'s own postconditions with their heads inside R(c). *)
let unify_own (a : analysis) c ~own ~successors =
  let comp = a.an_scc.component in
  let in_set d =
    let k = comp.(d) in
    k = c || mem_int k successors
  in
  Combine.unify_posts a.an_graph ~in_set ~members:own

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
let seed a c ~members ~own ~successors witnesses =
  let g = a.an_graph in
  match merge_witnesses (Combine.layout g) ~members ~own witnesses with
  | None -> None
  | Some merged -> (
    match unify_own a c ~own ~successors with
    | Error _ -> None
    | Ok t -> (
      try
        link_members t g a.an_scc.component successors merged own;
        unlinked t g own;
        Some (Seeded merged)
      with Coupled -> None))

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
   feeds both [cx_stats] and the span.  A phase starts at the previous
   phase's closing read ([cx_clock]) when there is one, so the
   bookkeeping between components counts as unification and a
   component costs two reads.  A budget abort inside still closes the
   span. *)
let phase ctx ~ground name args f x =
  let d = Obs.enter () in
  let t0 = if ctx.cx_clock >= 0 then ctx.cx_clock else Obs.now_ns_int () in
  ctx.cx_clock <- -1;
  match f ctx x with
  | v ->
    let t1 = Obs.leave_with d name ~t0 args ctx in
    charge ctx ~ground (t1 - t0);
    ctx.cx_clock <- t1;
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
      seed a c ~members:ctx.cx_members ~own:a.an_scc.members.(c) ~successors
        witnesses
    else None
  with
  | Some seeded -> seeded
  | None -> Full (Combine.unify_set a.an_graph ~members:ctx.cx_members)

(* The values a candidate's grounding writes: a seeded candidate's
   merged run; a full search's own first use of the shared run when
   R(q) is the SCC alone, whose slots nothing wrote yet, and otherwise a
   fresh run, so the covered successors' values stand. *)
let ground_unified ctx unified =
  let t, vs =
    match unified with
    | Seeded merged -> (Combine.layout ctx.cx_an.an_graph, merged)
    | Full (Ok t) ->
      (t, if ctx.cx_successors = [] then ctx.cx_shared
          else fresh_values t ctx.cx_members)
    | Full (Error _) -> assert false
  in
  if Ground.solve ~minimize:ctx.cx_minimize ctx.cx_db t
       ~members:ctx.cx_grounded vs
  then Some vs
  else None

(* The combined body of R(q) that [Probed] carries under tracing, which
   [Explain] renders as the SQL the full search would send; a seeded
   candidate's too. *)
let probed_body ctx c unified =
  let a = ctx.cx_an and members = ctx.cx_members in
  match unified with
  | Full (Ok t) -> Combine.combined_body t ~members
  | Seeded _ -> (
    match Combine.unify_set a.an_graph ~members with
    | Ok full -> Combine.combined_body full ~members
    | Error _ ->
      Combine.combined_body (Combine.start a.an_graph)
        ~members:a.an_scc.members.(c))
  | Full (Error _) -> assert false

let valuation_of ctx members vs =
  Combine.valuation ?ids:ctx.cx_ids (Combine.layout ctx.cx_an.an_graph)
    ~members vs

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
    let witness = Option.map (valuation_of ctx members) witness in
    emit "scc.probed"
      (fun () ->
        [
          ("members", Obs.Str (names ctx.cx_an.an_graph.queries members));
          ("witness", Obs.Bool (Option.is_some witness));
        ])
      (Probed
         { component = own; members; body = probed_body ctx c unified; witness });
    (* Building the trace is no phase's time. *)
    ctx.cx_clock <- -1
  end;
  match witness with
  | None ->
    ctx.cx_failed.(c) <- true;
    None
  | Some values ->
    (* |R(c)| without walking it: every element a merge finds twice
       was counted in both inputs' sizes. *)
    let size =
      List.fold_left
        (fun n (w : candidate) -> n + w.size)
        (List.length ctx.cx_an.an_scc.members.(c) - !dups)
        ctx.cx_witnesses
    in
    let cand = { covered = members; size; values } in
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
   to both.  It names no assignment: [solve] does, and an online fire
   asks [valuation] for one only when its caller wants it. *)
let solve_graph ?(selection = Largest) ?(preprocess = true)
    ?(graph_only = false) ?(minimize = false) ?ids db
    (graph : Coordination_graph.t)
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
             selected = None;
             solution = None;
             stats;
             degraded = None;
           })
    else begin
      (* Phase 2: process components in reverse topological order.  Our
         SCC ids are numbered sinks-first, so ascending id order is
         exactly that. *)
      let ctx = make_ctx ~minimize ?ids ~stats db a in
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
      let selected = select selection queries candidates in
      finish
        (Ok
           {
             queries;
             graph;
             candidates;
             selected;
             solution = None;
             stats;
             degraded = !degraded;
           })
    end

let valuation ?ids o c =
  Combine.valuation ?ids (Combine.layout o.graph) ~members:c.covered c.values

let solve_input ?selection ?preprocess ?graph_only ?minimize ~t_start db input
    =
  let queries = Query.rename_set input in
  let d = Obs.enter () in
  let t_graph = Obs.now_ns_int () in
  let graph = Coordination_graph.build queries in
  let t_built = Obs.leave d "scc.graph" ~t0:t_graph in
  let result =
    solve_graph ?selection ?preprocess ?graph_only ?minimize db graph
  in
  Result.map
    (fun o ->
      let solution =
        Option.map
          (fun c ->
            Solution.make ~members:c.covered ~assignment:(valuation o c))
          o.selected
      in
      let s = o.stats in
      s.graph_ns <- Int64.add s.graph_ns (Int64.of_int (t_built - t_graph));
      s.total_ns <- Int64.of_int (Obs.now_ns_int () - t_start);
      { o with solution })
    result

let solve_args input = [ ("queries", Obs.Int (List.length input)) ]

let close_solve span t_start input =
  if span >= 0 then
    ignore (Obs.leave_with span "scc.solve" ~t0:t_start solve_args input : int)

(* The [scc.solve] span opens at [t_start], which [stats] reads anyway,
   and closes only when armed: disarmed, it costs one branch. *)
let solve ?selection ?preprocess ?graph_only ?minimize db input =
  let span = Obs.enter () in
  let t_start = Obs.now_ns_int () in
  match
    solve_input ?selection ?preprocess ?graph_only ?minimize ~t_start db input
  with
  | result ->
    close_solve span t_start input;
    result
  | exception e ->
    close_solve span t_start input;
    raise e
