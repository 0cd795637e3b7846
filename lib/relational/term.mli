(** Terms: variables and constants.

    Shared between conjunctive-query atoms and entangled-query atoms.
    There are no function symbols — the term language of the paper is
    flat, which is what makes unification of atoms linear-time. *)

type t =
  | Var of string
  | Const of Value.t

val var : string -> t
val const : Value.t -> t
val int : int -> t
val str : string -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Variables print bare; constants print via {!Value.pp}. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
