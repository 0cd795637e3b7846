(** Directed graphs over dense integer node ids [0 .. n-1].

    This is the substrate for coordination graphs: nodes are query indexes.
    Parallel edges are collapsed (edge sets); self-loops are allowed.
    Mutation is restricted to edge insertion — the coordination algorithms
    build a graph once and then only analyse it (removals are modelled with
    {!induced_subgraph} / alive masks, matching the paper's cleaning
    phases). *)

type t

val create : int -> t
(** [create n] is the edgeless graph on nodes [0..n-1].
    @raise Invalid_argument if [n < 0]. *)

val node_count : t -> int

val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u -> v]; idempotent.
    @raise Invalid_argument on out-of-range nodes. *)

val mem_edge : t -> int -> int -> bool

val successors : t -> int -> int list
(** Out-neighbours in insertion order. *)

val successor : t -> int -> int -> int
(** [successor g u i] is the [i]-th out-neighbour of [u] in insertion
    order, [0 <= i < out_degree g u]: a walk over them allocates
    nothing. *)

val predecessors : t -> int -> int list

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_edges : (int -> int -> unit) -> t -> unit

val edges : t -> (int * int) list

val nodes : t -> int list

val transpose : t -> t

val induced_subgraph : t -> keep:(int -> bool) -> t
(** Same node-id space [0..n-1]; keeps exactly the edges whose both
    endpoints satisfy [keep].  Callers that need the node subset keep the
    [keep] mask alongside. *)

val of_edges : int -> (int * int) list -> t

val equal : t -> t -> bool
(** Same node count and same edge sets. *)

val pp : Format.formatter -> t -> unit
