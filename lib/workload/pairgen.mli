(** Many independent coordination pairs.

    [n] two-query cycles: the users of pair [i] each require the other's
    answer, so every pair is one strongly connected component and one
    weakly connected component: [n] components that share no queries
    and no edges.

    The set is safe by construction — every user is distinct and every
    postcondition names exactly one user's head.  It is {e not} unique:
    uniqueness (Definition 3) demands a directed path between every two
    queries, i.e. a single SCC, and independent pairs are the opposite
    of that.  Gupta's algorithm therefore rejects [make]'s output.

    [p_unsat], deterministic from [seed], is the probability that one
    body of a pair asks for a topic that is not in the table, making
    the whole component fail. *)

open Relational
open Entangled

val make :
  ?rows:int ->
  ?topics:int ->
  ?p_unsat:float ->
  seed:int ->
  int ->
  Database.t * Query.t list
(** [make ~seed n] builds the Posts table ({!Social.install_posts}) and
    [n] pairs.  [p_unsat] defaults to [0.]. *)
