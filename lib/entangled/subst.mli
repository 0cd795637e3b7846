(** Substitutions over flat terms.

    A substitution maps variable names to terms (variables or constants).
    Because the term language has no function symbols, a most general
    unifier either exists or fails on a constant clash — no occurs check
    is needed, and resolution is a short walk through variable-to-variable
    links. *)

open Relational

type t

val empty : t

val is_empty : t -> bool

val resolve : t -> Term.t -> Term.t
(** [resolve s t] follows variable links until a constant or an unbound
    variable (the class representative) is reached. *)

val unify_terms : t -> Term.t -> Term.t -> t option
(** Extend [s] so the two terms become equal; [None] on a constant
    clash. *)

val unify_atoms : t -> Cq.atom -> Cq.atom -> t option
(** Positionwise unification; [None] when the relations or arities differ
    or some position clashes. *)

val apply_atom : t -> Cq.atom -> Cq.atom
(** Physically the argument when no term of it resolves elsewhere. *)

val apply_cq : t -> Cq.t -> Cq.t
(** Physically the argument when no atom of it changes. *)

val bindings : t -> (string * Term.t) list
(** Fully-resolved bindings [x -> resolve s (Var x)] for every variable
    mentioned by the substitution, sorted by name.  Identity bindings
    (a representative mapping to itself) are omitted. *)

val equal : t -> t -> bool
(** Equality of the induced (resolved) bindings.  Substitutions that
    resolve every variable identically are equal even if built through
    different link chains. *)

val pp : Format.formatter -> t -> unit
