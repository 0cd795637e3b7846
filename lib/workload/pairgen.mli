(** Many independent coordination pairs — the sharding workload.

    [n] two-query cycles: the users of pair [i] each require the other's
    answer, so every pair is one strongly connected component and (with
    its optional dependent) one weakly connected component.  The batch
    therefore shards perfectly: [n] components that share no queries and
    no edges, which is what the component-sharded executor scales on and
    what the differential suite permutes across domain counts.

    The set is safe by construction — every user is distinct and every
    postcondition names exactly one user's head.  It is {e not} unique:
    uniqueness (Definition 3) demands a directed path between every two
    queries, i.e. a single SCC, and independent pairs are the opposite
    of that.  Gupta's algorithm therefore rejects [make]'s output; use
    {!ring} for a workload all three batch algorithms accept.

    Knobs, all deterministic from [seed]:
    - [p_unsat]: probability that one body of a pair asks for a topic
      that is not in the table, making the whole component fail
      (exercises failed candidates, and [Skipped] events on its
      dependent);
    - [p_dependent]: probability of a third query that needs pair [i]'s
      first answer, growing that component to 3 queries (weight
      imbalance for the work-stealing pool, and a dependent SCC that is
      skipped when its pair fails). *)

open Relational
open Entangled

val make :
  ?rows:int ->
  ?topics:int ->
  ?p_unsat:float ->
  ?p_dependent:float ->
  seed:int ->
  int ->
  Database.t * Query.t list
(** [make ~seed n] builds the Posts table ({!Social.install_posts}) and
    [n] pairs.  [p_unsat] and [p_dependent] default to [0.]. *)

val ring :
  ?rows:int ->
  ?topics:int ->
  seed:int ->
  int ->
  Database.t * Query.t list
(** [ring ~seed n] is one [n]-query cycle: query [i] posts for query
    [i+1 mod n], so the coordination graph is a single SCC and the set
    is safe {e and} unique — the shape {!Coordination.Gupta} requires.
    Every body is satisfiable, so the ring coordinates as a whole. *)
