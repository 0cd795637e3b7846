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
  covered : int list;
      (** query indexes, strictly ascending (no duplicates): a
          predecessor's cover is merged from its successors' in one
          linear pass that relies on it *)
  size : int;                    (** [List.length covered] *)
  values : Combine.values;
      (** every covered member's slot values ({!Combine}); read them
          through {!valuation} *)
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
  selected : candidate option;
      (** the chosen candidate: the answer, whether or not [solution]
          spells it out *)
  solution : Solution.t option;
      (** [selected] with its assignment, from {!solve}; always [None]
          from {!solve_graph}, whose caller builds the assignment with
          {!valuation} when it wants one *)
  stats : Stats.t;
  degraded : Resilient.degradation option;
      (** [Some _] when an armed {!Resilient.t} guard cut the solve
          short: [candidates] (and [solution]) hold everything probed
          before the abort — a prefix of the unguarded run's discovery
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
  ?ids:int array ->
  Database.t ->
  Coordination_graph.t ->
  (outcome, error) result
(** {!solve} from a supplied graph: the online engine assembles it from
    the edges it discovered at admission ({!Coordination_graph.of_edges})
    instead of rebuilding it.  The queries need not be renamed apart:
    unification and grounding name a variable by its member and local
    index ({!Combine}).  The outcome's [selected] is the answer and its
    [solution] is [None]: no assignment map is built unless the caller
    asks {!valuation} for one, so an online fire whose client reads only
    the members' names pays for none.  With [ids], a traced [Probed]
    witness names member [i]'s variable [x] ["q<ids.(i)>.x"]; without,
    variables keep their own names.  Same options, events, {!Stats} and
    degraded handling as {!solve}.  [stats.graph_ns] covers the analysis
    only, and no [scc.solve]/[scc.graph] span is emitted: both belong to
    the caller that built the graph. *)

val valuation : ?ids:int array -> outcome -> candidate -> Eval.valuation
(** A candidate's assignment, Definition 1's [h]: every variable of
    every covered member, member [i]'s variable [x] named
    ["q<ids.(i)>.x"] with [ids] and [x] without (the names must then be
    apart, as {!solve}'s renamed queries are).  Built on each call; a
    {!solve} outcome's [solution] already holds the selected one's. *)
