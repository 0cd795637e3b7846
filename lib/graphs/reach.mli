(** Reachability queries.

    The SCC coordination algorithm's guarantee is phrased in terms of
    [R(q)] — every query in an SCC reachable from [q]'s SCC.  These
    helpers compute such closures. *)

val from : Digraph.t -> int -> bool array
(** [from g s] marks every node reachable from [s] (including [s]). *)

val reachable_list : Digraph.t -> int -> int list
(** Reachable nodes in ascending id order. *)

val descendants_per_node : Digraph.t -> bool array array
(** [descendants_per_node g] gives, for each node, its reachability mask.
    O(n * (n + m)); for test/validation use on small graphs. *)

val simple_path_count : Digraph.t -> int -> int -> max:int -> int
(** Number of distinct simple paths (no repeated nodes) from [s] to [t],
    counting the empty path when [s = t]; stops counting at [max] (the
    single-connectedness test only needs "0, 1, or more").  Exponential in
    the worst case — intended for the small query sets where Definition 6
    is checked. *)
