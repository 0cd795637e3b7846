(** Compile-once conjunctive-query plans.

    {!canonicalize} lowers a {!Cq.t} to a *shape*: variables become
    integer slots (numbered in first-occurrence order) and constants
    become positional parameters.  The shape's {e key} identifies every
    query isomorphic to it — same relation symbols and term pattern,
    constants abstracted — so a per-database table keyed on it serves as
    a plan cache for the thousands of isomorphic probes the coordination
    algorithms issue ({!Database.prepare}).

    {!compile} fixes the join order and each atom's access path once per
    binding stage: which slots are bound when an atom runs is a static
    property of the order, so execution does no per-node re-planning, no
    string hashing, and no binding-undo bookkeeping.  The single
    remaining run-time decision is which bound column to probe when an
    atom has several — genuinely data-dependent, resolved with one
    {!Relation.count_matching} call per column on stage entry.

    {!execute} runs a plan over a [Value.t array] binding frame indexed
    by slot, invoking a callback per solution over the row store's
    indexes.  It is the only evaluator {!Eval} runs. *)

exception Unknown_relation of string
exception Arity_mismatch of string * int * int
(** Same meaning as the exceptions re-exported by {!Eval}:
    [Arity_mismatch (rel, got, expected)]. *)

type step_stat = {
  mutable s_entered : int;  (** times the step was entered *)
  mutable s_scanned : int;  (** candidate tuples examined *)
  mutable s_emitted : int;  (** candidates that matched and moved deeper *)
  mutable s_ns : int64;     (** inclusive time; only under {!set_analyze} *)
}
(** Per-step observed statistics.  Always on: plain int increments,
    allocation-free.  They never affect query results. *)

type stats = {
  mutable executions : int;
  mutable exec_ns : int64;
      (** whole-plan time, accumulated only while {!Obs.tracing} or
          {!set_analyze} — never under the always-on telemetry,
          whose probe path stays allocation-free *)
  est_rows : int array;
      (** compile-time per-step cardinality estimate (average index
          bucket — constants are abstracted out of shapes) *)
  steps_obs : step_stat array;
  compiled_version : int;
      (** [Database.data_version] when the plan was compiled *)
  mutable last_seen_version : int;
      (** [data_version] at the most recent cache hit *)
}

type t
(** A compiled plan: the join order and each step's access path.  Pure
    description: contains relation {e names}, not relation handles, so
    it survives table drop/re-creation (arities are re-validated on
    execution). *)

type binding = {
  params : Value.t array;   (** concrete constants, by parameter position *)
  var_names : string array; (** source variable name of each slot *)
}
(** The per-instance residue of canonicalization — what distinguishes a
    specific query from the shared shape. *)

type shape

val canonicalize : Cq.t -> string * shape * binding
(** [canonicalize q] is [(key, shape, binding)].  Two queries get equal
    keys iff they are isomorphic (equal up to variable renaming and
    constant values); such queries can execute the same compiled plan
    under their own [binding]. *)

val key : Cq.t -> string
(** Just the cache key of {!canonicalize}. *)

val compile :
  ?version:int -> (string -> Relation.t option) -> key:string -> shape -> t
(** [compile ?version lookup ~key shape] chooses the join order and
    access paths.  Relation cardinalities (from [lookup]) break ties;
    per-constant selectivities cannot be used — constants are
    abstracted — which is what makes the result safely shareable across
    isomorphic queries.  [version] (default 0) stamps the plan's
    [compiled_version] with the database content version it was planned
    against.
    @raise Unknown_relation, Arity_mismatch as {!Eval} would. *)

val execute :
  t ->
  (string -> Relation.t option) ->
  Counters.t ->
  binding ->
  on_frame:(Value.t array -> bool) ->
  unit
(** [execute plan lookup counters binding ~on_frame] enumerates
    solutions.  [on_frame] receives the binding frame — every slot holds
    its value; index with the positions of [binding.var_names] — and
    returns whether to continue.  The frame is reused between calls:
    callers must copy what they keep.  Tuples examined are added to
    [counters.tuples_scanned].
    @raise Invalid_argument if [binding] has the wrong parameter count.
    @raise Unknown_relation, Arity_mismatch when the database no longer
    matches the plan (e.g. a table was dropped or re-created). *)

val nslots : t -> int

(** {1 Observed statistics} *)

val stats : t -> stats
(** The plan's live statistics record (shared, mutable). *)

val note_seen : t -> version:int -> unit
(** Stamp [last_seen_version] — called by {!Database.prepare} on every
    cache hit. *)

val reset_stats : t -> unit

val set_analyze : bool -> unit
(** Arm/disarm analyze mode: per-step inclusive wall-clock timing (two
    clock reads per step entry).  Process-global; meant to bracket one
    [solve --explain-analyze].  The always-on counters do not depend on
    it. *)

val max_drift : t -> float
(** Largest per-step ratio between the compile-time cardinality
    estimate and the observed mean candidates per entry, symmetric
    ([>= 1.0]; 1.0 = estimates still describe the data).  Steps never
    entered are skipped. *)

val pp : Format.formatter -> t -> unit
(** Renders the step order and access paths, for logs and tests. *)

val pp_analyze : Format.formatter -> t -> unit
(** EXPLAIN ANALYZE rendering: {!pp}'s order annotated per step with
    estimated vs observed rows, scan/emit counts, selectivity, and —
    when runs happened under {!set_analyze} — inclusive times. *)
