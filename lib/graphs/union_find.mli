(** Growable union-find (disjoint sets) over dense integer ids.

    The component-sharded batch executor groups a condensation's nodes
    into weakly-connected components with one of these: every
    condensation edge unions its two ends, so each component becomes
    one shard's work item. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty structure.  [capacity] pre-sizes the backing arrays. *)

val ensure : t -> int -> unit
(** [ensure t id] makes every id in [0..id] valid, new ones as
    singletons.  Ids already present are untouched.
    @raise Invalid_argument on a negative id. *)

val cardinal : t -> int
(** Number of valid ids (one past the largest ever ensured). *)

val find : t -> int -> int
(** Representative of [id]'s set, with path compression.
    @raise Invalid_argument on an id never ensured. *)

val union : t -> int -> int -> int
(** Merge the two sets; returns the representative of the merged set
    (one of the two previous representatives).  Idempotent on already
    united ids. *)

val same : t -> int -> int -> bool
