(** Deterministic pseudo-random numbers (splitmix64).

    All workload generators and property tests draw from this so every
    experiment is reproducible from a seed, independent of OCaml's
    [Random] state. *)

type t

val create : int -> t
(** [create seed]. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on an empty list. *)

val pick_array : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k bound]: [k] distinct integers from [\[0, bound)],
    in random order.
    @raise Invalid_argument when [k > bound] or [k < 0]. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream. *)
