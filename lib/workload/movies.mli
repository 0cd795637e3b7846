(** The movie-night example of Section 5, verbatim.

    Coldplay's members each want to go to a cinema with at least one
    friend; the coordination attribute is the cinema.  The paper's tables
    and queries are reproduced exactly, so tests can assert the worked
    example's conclusions: no coordinating set at Cinemark, and
    {Chris, Jonny, Will} at Regal. *)

open Relational

val movies_schema : Schema.t
(** [M(movie_id, cinema, movie)]. *)

val config : Coordination.Consistent_query.config
(** Coordination on the cinema attribute only. *)

val chris : Value.t
val guy : Value.t
val jonny : Value.t
val will : Value.t

val make :
  unit ->
  Database.t * Coordination.Consistent_query.t list
(** Database (movies at Regal/AMC/Cinemark, the C friendship table) and
    the four queries qc, qg, qj, qw in that order. *)
