(** Tuples: fixed-arity arrays of values. *)

type t = Value.t array

val make : Value.t list -> t

val arity : t -> int

val get : t -> int -> Value.t

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic order; shorter tuples first. *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [(v1, v2, ...)]. *)

module Set : Set.S with type elt = t
module Hashtbl : Hashtbl.S with type key = t
