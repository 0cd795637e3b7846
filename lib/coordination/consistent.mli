(** The Consistent Coordination Algorithm (Section 5).

    Input: one A-consistent query per user (see {!Consistent_query}).
    The set may be unsafe and non-unique.  The algorithm:

    + computes, per query [q], the option list [V(q)] of
      coordination-attribute values whose substitution makes [q]'s own
      tuple requirement satisfiable (one database probe per query);
    + fetches each user's partner pool per binary relation the query
      mentions (one probe per query-relation pair);
    + builds the pruned coordination graph — vertices are queries with a
      non-empty [V(q)], and an edge [(qi, qj)] exists when [qi] names
      [qj]'s user or [qj]'s user is in one of [qi]'s partner pools;
    + for every value [v] in [V(Q)], restricts to [Gv] and iteratively
      removes queries whose coordination requirements fail (a named
      partner gone, or fewer pool partners left than required);
    + returns the surviving set of the best [v] (largest by default) and
      grounds each member to a concrete key (one probe per member).

    Guarantee (Proposition 1): among sets in which everybody agrees on
    the coordination attributes, a maximum one is found if any
    coordinating set exists at all.

    Beyond the paper's core fragment, partners may be drawn from several
    binary relations ([Any_from]) and a query may require [k] distinct
    friends ([K_friends]) — the Section 5 generalizations. *)

open Relational

type error =
  | Duplicate_user of Value.t
  | Missing_relation of string
  | Bad_k of Value.t * int
      (** a [K_friends k] partner with [k < 1] *)

val pp_error : Format.formatter -> error -> unit

type outcome = {
  config : Consistent_query.config;
  queries : Consistent_query.t array;
  options : Tuple.Set.t array;  (** V(q) per query *)
  candidates : (Tuple.t * int) list;
      (** per v in V(Q): surviving-set size (0 when it cleans to empty) *)
  chosen_value : Tuple.t option;  (** the winning v *)
  members : int list;             (** query indexes of the coordinating set *)
  choices : (Value.t * Value.t) list;  (** user -> chosen S key *)
  partner_choices : (int * Value.t list list) list;
      (** per member: for each partner slot, the user(s) chosen for it *)
  stats : Stats.t;
  degraded : Resilient.degradation option;
      (** [Some _] when an armed guard aborted the solve — during the
          option-list/pool probes (everything empty) or during final
          grounding ([members] survives, [choices] is empty) *)
}

val solve :
  ?selection:[ `Largest | `First ] ->
  Database.t ->
  Consistent_query.config ->
  Consistent_query.t list ->
  (outcome, error) result

(** {2 Staged interface}

    The stages {!solve} runs, exposed for tests: [prepare] performs all
    database work up front; each value's cleaning ({!survivors}) is then
    independent and pure. *)

type prepared

val prepare :
  Database.t ->
  Consistent_query.config ->
  Consistent_query.t list ->
  (prepared, error) result
(** Steps 1–3: option lists, partner pools, pruned graph.  Issues all
    pre-loop database probes. *)

val values : prepared -> Tuple.t list
(** V(Q), in deterministic (tuple) order. *)

val survivors : prepared -> Tuple.t -> int list * int
(** [survivors p v] is the cleaned member set of [Gv] (sorted query
    indexes) and the number of cleaning rounds used.  Pure. *)

val to_solution :
  Database.t ->
  outcome ->
  (Entangled.Query.t array * Entangled.Solution.t) option
(** Re-expresses a successful outcome in the general formalism: compiles
    the typed queries with {!Consistent_query.compile_set} and builds a
    full Definition-1 assignment (own tuples, partner tuples, friend
    variables).  [None] when the outcome found no coordinating set, or
    when some query uses [K_friends] (not expressible as an entangled
    query).  Used to cross-validate against {!Entangled.Solution.validate}. *)
