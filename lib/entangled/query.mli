(** Entangled queries: [{P} H :- B]  (Section 2.1 of the paper).

    [P] (postconditions) and [H] (head) are atoms over {e answer relation}
    symbols, disjoint from the database schema; [B] (body) is a
    conjunction of atoms over database relations.  A query's
    postconditions are what it needs {e other} queries in the coordinating
    set to produce; its head is what it offers. *)

open Relational

type t = {
  name : string;  (** a label for display and workload bookkeeping *)
  post : Cq.atom list;
  head : Cq.atom list;
  body : Cq.t;
}

val make :
  ?name:string -> post:Cq.atom list -> head:Cq.atom list -> Cq.atom list -> t
(** [make ~post ~head body].
    @raise Invalid_argument when the head is empty — a query must offer at
    least one answer atom (the paper's examples and reductions all do, and
    a headless query could never have its variables mentioned). *)

val variables : t -> string list
(** Distinct variables across post, head and body, first occurrence
    first. *)

val answer_relations : t -> string list
(** Distinct relation symbols used in post and head. *)

val body_relations : t -> string list

val rename : prefix:string -> t -> t
(** Prefix every variable name, for renaming query sets apart. *)

val rename_apart : int -> t -> t
(** [rename_apart i q]: variables get prefix ["q<i>."] and an empty
    name becomes ["q<i>"].  Distinct [i]s rename queries apart. *)

val rename_set : t list -> t array
(** {!rename_apart} by position: query [i] gets prefix ["q<i>."]. *)

val prefixed : int -> string -> string
(** [prefixed i x] is ["q<i>.<x>"], the name {!rename_apart}[ i] gives
    variable [x]. *)

val well_formed : Database.t -> t -> (unit, string) result
(** Checks the two syntactic conditions of Section 2.1 against an
    instance: body relation symbols must exist in the database schema, and
    answer relation symbols must {e not} collide with it.  Also checks
    arity consistency of answer atoms within the query. *)

val range_restricted : t -> bool
(** True when every variable of post and head occurs in the body.  The
    solvers do not require this per-query (unification with partners can
    bind head variables), but the final combined query must satisfy it up
    to constants; see {!Combine}. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation: [{P} H :- B]. *)

val equal : t -> t -> bool
