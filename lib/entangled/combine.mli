(** Combined queries: unifying a candidate coordinating set.

    Given a subset [S] of queries, every postcondition atom of a member
    must be made equal to a head atom of a member (condition (3) of
    Definition 1).  Under safety there is at most one candidate head per
    postcondition, so unification is deterministic; this module implements
    that deterministic case and reports ambiguity otherwise (the
    brute-force solver does its own backtracking over choices). *)

open Relational

type failure =
  | Unsatisfiable_post of int * int
      (** this member's postcondition has no candidate head within [S] *)
  | Ambiguous_post of int * int * int
      (** [(query, post_index, candidates)]: more than one candidate within
          [S] — the set is unsafe relative to [S] *)
  | Clash of int * int
      (** unification of this member's postcondition with its unique
          candidate failed on a constant clash *)

val pp_failure : Query.t array -> Format.formatter -> failure -> unit

val unify_set :
  Coordination_graph.t -> members:int list -> (Subst.t, failure) result
(** Thread a most general unifier through every (postcondition, head)
    pair induced by [members].  Queries must have been renamed apart. *)

val unify_posts :
  Coordination_graph.t ->
  in_set:(int -> bool) ->
  members:int list ->
  (Subst.t, failure) result
(** [unify_set] generalised: unify only the postconditions of [members],
    each with its unique candidate head among the queries satisfying
    [in_set] (a set that may be larger than [members]).  [unify_set g
    ~members] is [unify_posts g ~in_set:(fun q -> List.mem q members)
    ~members]. *)

val combined_body : Coordination_graph.t -> members:int list -> Subst.t -> Cq.t
(** The conjunction of the members' bodies under the unifier — the single
    query the paper sends to the database. *)
