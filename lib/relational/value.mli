(** Database values.

    The active domain of all instances in this library is built from these
    values.  Entangled-query constants and tuple fields share this type, so
    unification and grounding can compare them directly. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

val compare : t -> t -> int
(** Total order: [Int _ < Str _ < Bool _], then the natural order within
    each constructor. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** [pp] prints values the way the paper writes constants: integers and
    booleans bare, strings unquoted when they look like identifiers and
    single-quoted otherwise. *)

val to_string : t -> string

val int : int -> t
val str : string -> t
val bool : bool -> t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Hashtbl : Hashtbl.S with type key = t
