(** The SCC Coordination Algorithm (Section 4).

    Works on any {e safe} set of entangled queries — uniqueness is not
    required.  The coordination graph is condensed into its strongly
    connected components; components are processed in reverse topological
    order.  Each component's candidate set is its SCC together with every
    query reachable from it (the paper's [R(q)]); the candidate is unified
    into a single combined query and sent to the database once.  Among
    the successful candidates, a selection criterion picks the answer —
    maximal size by default, as in the paper.

    Guarantee (as in the paper): if any coordinating set exists, a
    coordinating set is found, and it has maximum size among
    [{R(q) | q in Q}].  Finding the overall maximum coordinating set is
    NP-hard (Theorem 2). *)

open Relational
open Entangled

type error = Not_safe of (int * int) list

type candidate = {
  covered : int list;            (** query indexes, sorted *)
  assignment : Eval.valuation;
}

type selection =
  | Largest                      (** the paper's default: maximal size *)
  | First_found
      (** earliest successful component; stops issuing database probes as
          soon as one candidate grounds *)
  | Preferred of (Query.t array -> candidate -> int)
      (** custom score; largest score wins, ties broken by discovery
          order (the airline gold-status example of Section 4) *)

type outcome = {
  queries : Query.t array;
  graph : Coordination_graph.t;
  candidates : candidate list;   (** all successful components, discovery order *)
  solution : Solution.t option;
  stats : Stats.t;
  degraded : Resilient.degradation option;
      (** [Some _] when an armed {!Resilient.t} guard cut the solve
          short: [candidates] (and [solution]) hold everything probed
          before the abort — a prefix of the fault-free run's discovery
          order — and the degradation lists the components that went
          unprobed.  [None]: the solve ran to completion. *)
}

(** Execution events, emitted in order on the {!Obs} stream as
    {!Scc_event} payloads — the raw material for {!Explain} traces.
    Serializing trace sinks render the same emissions as named events
    with query-name args. *)
type event =
  | Pruned of int list
      (** queries dropped by preprocessing (unsatisfiable postconditions) *)
  | Skipped of { component : int list }
      (** a successor component had already failed *)
  | Unify_failed of { component : int list; failure : Combine.failure }
  | Probed of {
      component : int list;
      members : int list;        (** the candidate set R(q) *)
      body : Relational.Cq.t;    (** the combined query sent to the database *)
      witness : Eval.valuation option;  (** [None]: unsatisfiable *)
    }

type Obs.payload += Scc_event of event

val solve :
  ?selection:selection ->
  ?preprocess:bool ->
  ?graph_only:bool ->
  ?minimize:bool ->
  Database.t ->
  Query.t list ->
  (outcome, error) result
(** Renames the input apart ({!Query.rename_set}), builds its
    coordination graph ({!Coordination_graph.build}, the [scc.graph]
    span) and runs {!solve_graph} on it, charging the construction to
    [stats.graph_ns].

    [preprocess] (default [true]) iteratively drops queries with an
    unsatisfiable postcondition before the SCC phase, as in the
    implementation described in Section 6.1.  Disabling it is exposed for
    the ablation benchmark; results are identical because such queries
    can never unify, but more components fail late, costing unification
    work and database probes.

    [graph_only] (default [false]) stops after graph construction,
    preprocessing and SCC condensation, returning an outcome with no
    candidates — the quantity Figure 6 measures.

    [minimize] (default [false]) grounds each candidate through the core
    of its combined query (see {!Entangled.Ground.solve}); identical
    answers with fewer joins when unification makes atoms redundant. *)

val solve_graph :
  ?selection:selection ->
  ?preprocess:bool ->
  ?graph_only:bool ->
  ?minimize:bool ->
  Database.t ->
  Coordination_graph.t ->
  (outcome, error) result
(** {!solve} from a supplied graph over renamed-apart queries: the
    online engine assembles it from the edges it discovered at
    admission ({!Coordination_graph.of_edges}) instead of rebuilding
    it.  Same options, events, {!Stats} and degraded handling as
    {!solve}.  [stats.graph_ns] covers the analysis only, and no
    [scc.solve]/[scc.graph] span is emitted: both belong to the caller
    that built the graph. *)

(** {2 Component-level execution}

    The solver split open for {!Executor}: a database-free analysis
    phase shared by every shard, and a per-component probing step.  The
    sequential {!solve} is [analyze] followed by [probe_component] over
    components in ascending SCC id (reverse topological) order; a shard
    runs the same step over its own component list with a private
    {!ctx}, which is sound because condensation edges never cross
    weakly-connected components. *)

type analysis = {
  an_graph : Coordination_graph.t;  (** over renamed-apart queries *)
  an_alive : bool array;       (** [false] for preprocessing-pruned queries *)
  an_scc : Graphs.Scc.result;
  an_cond : Graphs.Digraph.t;  (** condensation; ids sinks-first *)
}

val analyze :
  ?preprocess:bool -> Coordination_graph.t -> (analysis, error) result
(** Optional preprocessing, safety check and SCC condensation of a
    graph over already-renamed queries.  Emits the same
    [scc.preprocess]/[scc.condense] spans and [scc.pruned] event as
    {!solve}; touches no database.  Building the graph (and its
    [scc.graph] span) is the caller's. *)

type ctx
(** Mutable per-run probing state: failure and coverage maps keyed by
    SCC id (a covered SCC keeps its candidate, whose witness seeds its
    predecessors), plus the database handle and the {!Stats.t} that
    [probe_component] charges unify/ground time and candidate counts
    to. *)

val make_ctx : ?minimize:bool -> stats:Stats.t -> Database.t -> ctx

val probe_component : ctx -> analysis -> int -> candidate option
(** [probe_component ctx a c] processes SCC [c]: skip if a successor
    failed, otherwise unify and ground the candidate set R(q), updating
    [ctx] and emitting the [scc.skipped]/[scc.unify_failed]/[scc.probed]
    events.  When every successor is covered and [c]'s constraints only
    read the successors' values, only [c]'s own postconditions are
    unified and only its own bodies grounded, seeded from the
    successors' witnesses; the verdict is the full search's either way,
    and each candidate is one database probe.  Must be called in ascending SCC id order relative to the
    other components handled through the same [ctx].  A guard abort
    ({!Resilient.Abort}) propagates to the caller. *)

val select : selection -> Query.t array -> candidate list -> candidate option
(** The selection criterion applied to candidates in discovery order:
    first for [First_found], otherwise the highest-scoring candidate
    with ties broken towards earliest discovery.  Exposed so the
    executor's deterministically merged candidate list goes through
    exactly the sequential tie-breaking. *)
