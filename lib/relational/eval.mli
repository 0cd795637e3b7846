(** Conjunctive-query evaluation.

    One evaluator answers every query: the query is canonicalized —
    variables numbered into integer slots, constants abstracted into
    parameters — and lowered once into a {!Plan.t} whose join order and
    access paths are fixed per binding stage.  Plans are cached on the
    database instance keyed by query shape, so isomorphic probes (the
    common case in the coordination algorithms: thousands of
    structurally identical queries differing only in constants) compile
    exactly once, and a probe finds its plan without building a key.
    The hot path runs over a slot-indexed binding frame with no string
    hashing, no per-node re-planning and no closure; {!first} leaves
    its answer in the plan's own reused frame.  Its reference semantics
    live in the test suite's evaluation oracle.

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
    query succeeds with the empty valuation.  {!first}, with the witness
    copied into a map. *)

type witness
(** The first satisfying valuation of the query last probed, read in
    place out of its plan's reused slot frame. *)

val first : Database.t -> Cq.t -> witness option
(** The first-answer probe behind {!find_first}: the same valuation,
    left in the plan's frame instead of a map.  Builds no key, binding
    or valuation: a probe allocates only its [Some] witness. *)

val witness_slot : witness -> int -> Value.t
(** The witness's value of the probed query's [k]-th variable in
    first-occurrence order (its plan slot), read without a name.
    @raise Invalid_argument once another probe has run. *)

val satisfiable : Database.t -> Cq.t -> bool

val find_all : ?limit:int -> Database.t -> Cq.t -> valuation list
(** All satisfying valuations (up to [limit] when given), in search order.
    Two valuations agreeing on all variables of the query are returned
    once. *)

val pp_valuation : Format.formatter -> valuation -> unit
