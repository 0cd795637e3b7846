(** Grounding a combined query: the single database probe per candidate
    set, extended to values for every member variable. *)

open Relational

val solve :
  ?minimize:bool ->
  Database.t ->
  Combine.t ->
  members:int list ->
  Combine.values ->
  bool
(** [solve db t ~members vs] evaluates the members' combined body under
    the unifier [t] ({!Combine.combined_body}) with choose-1 semantics:
    one first-answer probe ({!Eval.first}), whose witness is read in
    place by plan slot.  On success every slot of every member is
    written into [vs]: a class's constant, else the witness's value of
    the class, else — a variable left unconstrained, possible when
    unification bound no constant and the body never mentions it — the
    instance's least active-domain value (Definition 1 only asks for
    {e some} domain value).  [false] when the body is unsatisfiable or
    a free variable exists while the active domain is empty.

    [minimize] (default [false]) first replaces the combined body by its
    core ({!Relational.Containment.minimize_with_retraction}) and maps
    the witness back through the retraction — fewer joins, identical
    satisfiability, still a full Definition-1 assignment. *)

val valuation :
  ?minimize:bool ->
  Database.t ->
  Combine.t ->
  members:int list ->
  Eval.valuation option
(** {!solve} into fresh values, read back as a valuation keyed by the
    variables' own names ({!Combine.valuation}): for queries renamed
    apart by the caller. *)
