(** Combined queries: unifying a candidate coordinating set.

    Given a subset [S] of queries, every postcondition atom of a member
    must be made equal to a head atom of a member (condition (3) of
    Definition 1).  Under safety there is at most one candidate head per
    postcondition, so unification is deterministic; this module implements
    that deterministic case and reports ambiguity otherwise (the
    brute-force solver does its own backtracking over choices).

    Paper §2.1 takes the queries of a set to have disjoint variables.
    Here a variable is named by its member and local index, not by a
    renamed string: member [i] numbers its variables in first-occurrence
    order over post, head and body, and variable [j] is the {e slot}
    [offset i + j].  The unifier is an int union-find over slots with at
    most one constant per class.  Layout and unifier live in one reused
    scratch, which the next {!layout} of another graph or {!start}
    overwrites: nothing here is reentrant. *)

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

type t
(** The scratch: a graph's slot layout and a unifier over it. *)

val layout : Coordination_graph.t -> t
(** Loads [g]'s layout, unless [g] is the graph loaded already. *)

val start : Coordination_graph.t -> t
(** {!layout}, then a fresh unifier: every slot its own class. *)

val unify_set : Coordination_graph.t -> members:int list -> (t, failure) result
(** A most general unifier of every (postcondition, head) pair induced
    by [members]. *)

val unify_posts :
  Coordination_graph.t ->
  in_set:(int -> bool) ->
  members:int list ->
  (t, failure) result
(** Only the postconditions of [members], each with its unique candidate
    head among the queries satisfying [in_set]. *)

val unify_post :
  t -> src:int -> post_index:int -> dst:int -> head_index:int -> bool
(** One postcondition with one head; [false] on a relation, arity or
    constant clash, possibly after some bindings ({!undo} them). *)

type mark

val mark : t -> mark
val undo : t -> mark -> unit
(** Take back every union and binding since the mark. *)

(** {1 Slots and classes} *)

val offset : t -> int -> int
(** Member [i]'s first slot; [offset t n] counts all [n] members'. *)

val head_code : t -> int -> int -> int
(** Where head [hi] of member [d] starts among the argument {!code}s. *)

val body_code : t -> int -> int
(** Where member [m]'s body starts among the argument {!code}s. *)

val code : t -> int -> int
(** An argument's slot, or [-1] for a constant. *)

val find : t -> int -> int
(** A slot's class representative, its root. *)

val value : t -> int -> Value.t option
(** A root's constant. *)

val link : t -> int -> Value.t -> bool
(** [link t y v] fixes the class of slot [y] to [v], tagged [y];
    [false] when the class holds a constant or another tag already. *)

val linked : t -> int -> bool
(** Whether a slot's class is tagged by {!link}. *)

(** {1 The combined body} *)

val combined_body : t -> members:int list -> Cq.t
(** The conjunction of the members' bodies under the unifier — the
    single query the paper sends to the database.  A lone member's body
    comes back as it is when no class holds a constant or two of its
    variables; otherwise class [k] (first-occurrence order) is the
    interned variable [_k].  Either way {!plan_slot} names the slot the
    planner gives each class. *)

val plan_slot : t -> int -> int
(** A root's plan slot in the body last built, [-1] if not in it. *)

val plan_name : t -> int -> string
(** A plan slot's variable in the body last built. *)

(** {1 Values} *)

type values = private { base : int; v : Value.t array }
(** A run of slot values: slot [s] is [v.(s - base)]. *)

val values : base:int -> len:int -> values
(** Every slot unset. *)

val get : values -> int -> Value.t
(** {!is_unset} when never written or out of the run. *)

val is_unset : Value.t -> bool

val valuation :
  ?ids:int array -> t -> members:int list -> values -> Eval.valuation
(** The members' variables, keyed by name, or [q<ids.(i)>.<x>] for
    member [i] ({!Query.prefixed}) when [ids] is given. *)

val body_tuples :
  t -> members:int list -> values -> (string * Value.t array) list
(** Each member's body atoms, grounded, member order then body order. *)
