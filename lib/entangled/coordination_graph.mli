(** Coordination graphs (Section 2.3).

    The {e extended} coordination graph has an edge
    [((q, ap), (q', ah))] whenever postcondition atom [ap] of [q] is
    unifiable with head atom [ah] of [q'] — same relation symbol and no
    position holding two different constants.  Collapsing parallel edges
    gives the {e coordination graph} proper, a plain digraph over query
    indexes. *)

open Relational

type edge = {
  src : int;         (** query owning the postcondition *)
  post_index : int;  (** index into [post] of [src] *)
  dst : int;         (** query owning the head atom *)
  head_index : int;  (** index into [head] of [dst] *)
}

type t = private {
  queries : Query.t array;
  extended : edge list;
  graph : Graphs.Digraph.t;   (** collapsed; node ids = query indexes *)
  targets : (int * int) list array array;
      (** [targets.(src).(post_index)]: the [(dst, head_index)] pairs of
          that postcondition's edges, in edge order *)
}

val compatible : Cq.atom -> Cq.atom -> bool
(** The paper's unifiability test for graph edges: same relation symbol,
    same arity, and no position where both atoms carry different
    constants.  Weaker than MGU existence (repeated variables can still
    make real unification fail — the algorithms handle that later). *)

(** A two-level atom index: relation symbol, then the constant in the
    first argument position (wildcard bucket for atoms whose first
    argument is a variable).  {!build} uses one for near-linear graph
    construction; the online engine keeps persistent indexes of pooled
    postconditions and heads so a new arrival discovers its coordination
    edges by probing instead of re-unifying against the whole pool. *)
module Atom_index : sig
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> Cq.atom -> 'a -> unit
  (** Register an atom with a caller payload (typically its owner). *)

  val remove : 'a t -> Cq.atom -> ('a -> bool) -> unit
  (** [remove t a pred] drops every entry under [a]'s buckets whose
      payload satisfies [pred] — pass the same atom used in {!add}. *)

  val key_count : 'a t -> int
  (** First-argument-constant keys currently held, over all relations
      — a debug and gauge accessor: it tracks the distinct constants
      of the live atoms, not every constant ever added. *)

  val probe : 'a t -> Cq.atom -> (Cq.atom * 'a) list
  (** All stored atoms {!compatible} with the probe atom, bucket order
      (first-argument-constant matches before wildcards). *)
end

val build : Query.t array -> t
(** Queries are expected to be renamed apart (see {!Query.rename_set});
    variable names shared between queries would create spurious unifier
    interactions downstream.  Discovers every compatible post × head
    pair (self-loops included) through an {!Atom_index}, then calls
    {!of_edges}. *)

val of_edges : Query.t array -> edge list -> t
(** The graph over [queries] with exactly the given extended edges (in
    any order; each at most once).  [extended] and [targets] depend on
    the edge set only, and so does the collapsed digraph's adjacency
    order, hence its SCC numbering: a caller that discovered the edges
    itself — the online engine, at admission — gets the graph {!build}
    would. *)

val post_targets : t -> src:int -> post_index:int -> (int * int) list
(** Candidate [(query, head_index)] pairs for one postcondition atom, in
    edge order; O(1), read from [targets]. *)

val prune_unsatisfiable : t -> alive:bool array -> unit
(** Iteratively clears [alive.(q)] for every query [q] having a
    postcondition atom none of whose candidate heads belongs to a live
    query.  This is the preprocessing step of the implementation in
    Section 6.1; it reaches the greatest fixpoint with a worklist, in
    time linear in the number of edges. *)

val post_count : t -> int
(** Total number of postcondition atoms across all queries. *)

val pp : Format.formatter -> t -> unit
