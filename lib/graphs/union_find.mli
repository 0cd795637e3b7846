(** Union-find (disjoint sets) over the dense integer ids [0 .. n-1]. *)

type t

val create : int -> t
(** [create n]: the ids [0 .. n-1], each a singleton.
    @raise Invalid_argument if [n] is negative. *)

val find : t -> int -> int
(** Representative of [id]'s set, with path compression.
    @raise Invalid_argument on an id outside [0 .. n-1]. *)

val union : t -> int -> int -> int
(** Merge the two sets; returns the representative of the merged set
    (one of the two previous representatives).  Idempotent on already
    united ids. *)

val same : t -> int -> int -> bool
