(** Relation schemas.

    A schema names a relation and its attributes, in order.  Attribute
    names are unique within a schema.  Arity is the number of attributes. *)

type t

val make : string -> string list -> t
(** [make name attrs] builds a schema.
    @raise Invalid_argument if [attrs] contains duplicates or is empty,
    or if [name] is empty. *)

val validate : string -> string list -> (unit, string) result
(** The checks {!make} applies, as a value: [Error why] exactly when
    [make name attrs] would raise.  Lets a boundary that accepts
    untrusted table definitions answer with an error instead. *)

val name : t -> string

val arity : t -> int

val attributes : t -> string array
(** The attribute names in declaration order.  The returned array is a
    fresh copy; mutating it does not affect the schema. *)

val attribute : t -> int -> string
(** [attribute s i] is the name of the [i]-th attribute.
    @raise Invalid_argument on an out-of-bounds index. *)

val index_of : t -> string -> int
(** [index_of s a] is the position of attribute [a].
    @raise Not_found if [a] is not an attribute of [s]. *)

val mem_attribute : t -> string -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [Name(attr1, attr2, ...)]. *)
