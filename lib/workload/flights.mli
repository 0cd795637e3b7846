(** The flight-coordination workload of Figures 7 and 8.

    Schema [Flights(fid, dest, day, src, airline)]: coordination
    attributes are destination and day; source and airline are personal.
    The paper's worst case: every (dest, day) combination in the table is
    unique (so the option list is as long as the table), the friendship
    graph is complete, and every query is satisfied by every tuple. *)

open Relational

val flights_schema : Schema.t

val config : Coordination.Consistent_query.config
(** Coordination on dest and day, friendship relation ["Friends"],
    answer relation ["R"]. *)

val install_flights : Database.t -> rows:int -> Relation.t
(** [rows] tuples, each with a distinct (dest, day) pair: destination
    ["D<i>"], day ["Y<i>"], source ["S<i mod 10>"], airline
    ["A<i mod 5>"]. *)

val install_complete_friends : Database.t -> users:int -> Relation.t
(** [Friends(user, friend)] holding every ordered pair of distinct users
    ["p0" .. "p<users-1>"]. *)

val user : int -> Value.t

val worst_case_queries : users:int -> Coordination.Consistent_query.t list
(** One query per user, all attributes "don't care", one any-friend
    partner — the paper's stress-test shape. *)

val make_worst_case :
  rows:int -> users:int -> Database.t * Coordination.Consistent_query.t list
(** Figures 7 and 8 instance. *)

val constrained_queries :
  Prng.t ->
  users:int ->
  rows:int ->
  constrain_fraction:float ->
  Coordination.Consistent_query.t list
(** A more realistic mix: each user pins the destination of an existing
    row with probability [constrain_fraction] (and similarly a source),
    still with one any-friend partner.  Used by the realistic-scenario
    bench and tests. *)
