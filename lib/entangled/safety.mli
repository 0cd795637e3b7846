(** Safety and uniqueness of query sets (Definitions 2 and 3). *)

val unsafe_posts :
  ?alive:bool array -> Coordination_graph.t -> (int * int) list
(** Postcondition atoms [(query, post_index)] with two or more candidate
    head atoms in the extended graph — the witnesses of unsafety, in
    ascending order.  With [alive], only live queries' postconditions
    and live candidate heads count (safety after preprocessing). *)

val is_safe_query : Coordination_graph.t -> int -> bool
(** Query [q] is safe in [Q] when none of its postcondition atoms unifies
    with more than one head atom appearing in [Q]. *)

val is_safe : Coordination_graph.t -> bool

val is_unique : Coordination_graph.t -> bool
(** For a safe set: unique iff the coordination graph has a directed path
    between every two vertices, i.e. it is strongly connected (a single
    SCC).  Meaningful per Definition 3 only on safe sets, but computable
    on any graph. *)

val classify : Coordination_graph.t -> [ `Safe_unique | `Safe | `Unsafe ]
