(** The list-structure workload of Figure 4.

    [n] queries in a chain: query [i] asks to coordinate with query
    [i+1]; the last has no coordination partner.  The set is safe but
    not unique — there is a distinct coordinating set for every suffix,
    which is the worst case for the SCC algorithm (one database probe
    per suffix). *)

open Relational
open Entangled

val user : int -> Value.t
(** The user constant for query [i]. *)

val queries : ?topics:int -> Prng.t -> n:int -> Query.t list
(** Query [i]: [{R(u<i+1>, y)} R(u<i>, x) :- Posts(x, t)] with a random
    topic from the pool (all pool topics exist in the table built by
    {!Social.install_posts} with the same [topics]). *)

val make :
  ?rows:int ->
  ?topics:int ->
  seed:int ->
  int ->
  Database.t * Query.t list
(** Database plus chain, ready for {!Coordination.Scc_algo.solve}. *)
