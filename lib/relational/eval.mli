(** Conjunctive-query evaluation.

    One evaluator answers every query: the query is canonicalized —
    variables numbered into integer slots, constants abstracted into
    parameters — and lowered once into a {!Plan.t} whose join order and
    access paths are fixed per binding stage.  Plans are cached on the
    database instance keyed by query shape, so isomorphic probes (the
    common case in the coordination algorithms: thousands of
    structurally identical queries differing only in constants) compile
    exactly once.  The hot path runs over a slot-indexed binding frame
    with no string hashing and no per-node re-planning.  Its reference
    semantics live in the test suite's evaluation oracle.

    Each top-level call counts as one database probe
    ({!Database.count_probe}), mirroring "one SQL query" in the paper's
    experiments; plan-cache hits/misses and tuples scanned land in
    {!Database.counters}. *)

module Binding : Map.S with type key = string
(** Valuations: finite maps from variable names to values. *)

type valuation = Value.t Binding.t

exception Unknown_relation of string
(** Raised when a query mentions a relation absent from the instance.
    (Physically equal to {!Plan.Unknown_relation}.) *)

exception Arity_mismatch of string * int * int
(** [Arity_mismatch (rel, got, expected)].
    (Physically equal to {!Plan.Arity_mismatch}.) *)

val find_first : Database.t -> Cq.t -> valuation option
(** Choose-1 semantics: the first satisfying valuation, if any.  The empty
    query succeeds with the empty valuation. *)

val satisfiable : Database.t -> Cq.t -> bool

val find_all : ?limit:int -> Database.t -> Cq.t -> valuation list
(** All satisfying valuations (up to [limit] when given), in search order.
    Two valuations agreeing on all variables of the query are returned
    once. *)

val count : Database.t -> Cq.t -> int
(** Number of distinct satisfying valuations.  No per-solution
    valuation map is materialized. *)

val distinct_projections :
  Database.t -> Cq.t -> string list -> Tuple.Set.t
(** [distinct_projections db q vars] is the set of distinct tuples of
    values the listed variables take over all satisfying valuations.
    @raise Invalid_argument if some listed variable does not occur in [q]. *)

val check_ground : Database.t -> Cq.t -> bool
(** [check_ground db q] for a variable-free query: true iff every atom's
    tuple is present.  Counts as one probe. *)

val pp_valuation : Format.formatter -> valuation -> unit
