(** Grounding a combined query: the single database probe per candidate
    set, extended to a full assignment over all member variables. *)

open Relational

val solve :
  ?minimize:bool ->
  ?fixed:(string * Value.t) list ->
  ?into:Eval.valuation ->
  Database.t ->
  Query.t array ->
  members:int list ->
  Subst.t ->
  Eval.valuation option
(** [solve db queries ~members subst] evaluates the members' combined body
    under [subst] with choose-1 semantics: one first-answer probe
    ({!Eval.first}), whose witness is read in place.

    [minimize] (default [false]) first replaces the combined body by its
    core ({!Relational.Containment.minimize_with_retraction}) and maps
    the witness back through the retraction — fewer joins, identical
    satisfiability, still a full Definition-1 assignment.  On success the returned
    valuation covers {e every} variable of every member: body variables
    from the database witness, head/post variables through the unifier,
    and any variable left unconstrained (possible when unification bound
    no constant and the body never mentions it) from the instance's active
    domain — Definition 1 only asks for {e some} domain value.  Returns
    [None] when the body is unsatisfiable or a free variable exists while
    the active domain is empty.

    [fixed] (default empty) values unifier class representatives that
    the body does not mention, ahead of the active-domain default: a
    seeded SCC candidate passes the values its successors' witness gives
    the classes linking its own head and postcondition variables to
    theirs.

    [into] (default empty) is the valuation the result extends: a seeded
    candidate passes its successors' merged witness, whose variables
    the members' (renamed apart) never meet. *)
