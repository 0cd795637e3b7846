(** Conjunctive-query homomorphisms, containment, and minimization.

    Combined queries produced by unifying entangled queries accumulate
    redundant atoms — e.g. Chris's [F(x1, x)] next to Guy's
    [F(x1, Paris)] once [x] is forced to [Paris].  The classical theory
    (Chandra & Merlin) says every CQ has a unique core up to renaming,
    obtained by folding the query into itself; evaluating the core gives
    the same answers with fewer joins.

    All procedures here are exponential in query size in the worst case
    (containment is NP-complete); combined coordination queries are
    small, and {!minimize} is exposed as an optional optimizer pass. *)

exception Too_large of int
(** Raised by {!homomorphism} and friends when the source query has more
    than 32 atoms, the guard for the exponential search. *)

val homomorphism : Cq.t -> Cq.t -> (string * Term.t) list option
(** [homomorphism q1 q2] is a mapping of [q1]'s variables to terms of
    [q2] sending every atom of [q1] to an atom of [q2] (constants fixed),
    or [None].  Existence means [q2]'s answers are contained in [q1]'s
    (over the shared variables). *)

val contained_in : Cq.t -> Cq.t -> bool
(** [contained_in q1 q2]: every instance satisfying [q1] satisfies [q2],
    i.e. there is a homomorphism from [q2] into [q1]. *)

val equivalent : Cq.t -> Cq.t -> bool

val minimize : ?protect:string list -> Cq.t -> Cq.t
(** The core of the query: a minimal subquery equivalent to the input.
    Variables listed in [protect] (e.g. variables referenced by heads or
    postconditions) are kept as themselves — they may not be collapsed
    into other terms, so the minimized query still binds them.
    Returns the input unchanged when it has more than 32 atoms. *)

val minimize_with_retraction :
  ?protect:string list -> Cq.t -> Cq.t * (string * Term.t) list
(** Like {!minimize}, also returning the retraction: a mapping defined on
    every variable of the input, into terms of the core, such that any
    satisfying valuation [h] of the core extends to the full query by
    [x -> h(retraction x)].  This is how choose-1 grounding recovers
    values for variables the core no longer mentions. *)
