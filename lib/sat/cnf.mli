(** Propositional formulas in conjunctive normal form. *)

type literal = {
  var : int;        (** 1-based variable index *)
  positive : bool;
}

type clause = literal list

type t = {
  num_vars : int;
  clauses : clause list;
}

val lit : int -> literal
(** [lit v] for [v > 0] is the positive literal of variable [v]; for
    [v < 0] the negative literal of [-v].  @raise Invalid_argument on 0. *)

val make : num_vars:int -> int list list -> t
(** Clauses in DIMACS style: nonzero integers, sign is polarity.
    @raise Invalid_argument when a literal mentions a variable outside
    [1..num_vars]. *)

type assignment = bool array
(** Index 0 unused; [a.(v)] is the truth value of variable [v]. *)

val eval_clause : clause -> assignment -> bool

val eval : t -> assignment -> bool

val clause_count : t -> int

val is_three_cnf : t -> bool
(** Every clause has exactly three literals over three distinct
    variables — the shape the reductions expect. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x1 | !x2 | x3) & ...]. *)
