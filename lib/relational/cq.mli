(** Conjunctive queries over a database instance.

    A conjunctive query here is a conjunction of relational atoms; we do
    not model a head/projection because the coordination algorithms only
    need (a) satisfiability probes and (b) a single witnessing valuation
    (the paper's choose-1 semantics).  Projections are handled by the
    caller on the returned valuation. *)

type atom = {
  rel : string;            (** database relation name *)
  args : Term.t array;
}

type t = { atoms : atom list }

val atom : string -> Term.t list -> atom

val make : atom list -> t

val variables : t -> string list
(** Distinct variables, in first-occurrence order. *)

val atom_variables : atom -> string list

val pp_atom : Format.formatter -> atom -> unit

val pp : Format.formatter -> t -> unit
(** Prints as [R(x, 1), S(y)]; the empty query prints as [true]. *)

val equal_atom : atom -> atom -> bool
