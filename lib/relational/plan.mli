(** Compile-once conjunctive-query plans.

    {!canonicalize} lowers a {!Cq.t} to a {e shape}: variables become
    integer slots (numbered in first-occurrence order) and constants
    become positional parameters.  The shape identifies every query
    isomorphic to it — same relation symbols and term pattern,
    constants abstracted — so a per-database {!cache} of plans by shape
    serves the thousands of isomorphic probes the coordination
    algorithms issue ({!Database.plan}).

    {!compile} fixes the join order and each atom's access path once per
    binding stage: which slots are bound when an atom runs is a static
    property of the order, so execution does no per-node re-planning, no
    string hashing, and no binding-undo bookkeeping.  The single
    remaining run-time decision is which bound column to probe when an
    atom has several — genuinely data-dependent, resolved with one
    {!Relation.count_matching} call per column on stage entry.

    {!first} and {!execute} run a plan over a [Value.t array] binding
    frame indexed by slot, over the row store's indexes, with one
    closure-free join: {!first} stops at the first solution in the
    plan's reused frame, {!execute} hands every solution to a
    callback.  It is the only evaluator {!Eval} runs. *)

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
(** A compiled plan: the join order, each step's access path and
    relation, and a reused slot frame. *)

type binding = {
  params : Value.t array;   (** concrete constants, by parameter position *)
  var_names : string array; (** source variable name of each slot *)
}
(** The per-instance residue of canonicalization — what distinguishes a
    specific query from the shared shape. *)

type shape
(** A query's shape: its relation symbols and term pattern, variables
    numbered into slots in first-occurrence order and constants
    abstracted.  Structural equality ([=]) is shape equality. *)

val canonicalize : Cq.t -> shape * binding
(** [canonicalize q] is [(shape, binding)].  Two queries have equal
    shapes iff they are isomorphic (equal up to variable renaming and
    constant values); such queries execute the same compiled plan under
    their own [binding]. *)

val key : Cq.t -> string
(** The shape of [q] rendered, e.g. [F(s0,p,);H(s1,s0,);]: equal keys
    iff equal shapes.  {!pp} heads a plan with it. *)

val compile : ?version:int -> (string -> Relation.t option) -> Cq.t -> t
(** [compile ?version lookup q] chooses the join order and
    access paths.  Relation cardinalities (from [lookup]) break ties;
    per-constant selectivities cannot be used — constants are
    abstracted — which is what makes the result safely shareable across
    isomorphic queries.  The plan keeps the relations [lookup] gave it,
    so it must not outlive a drop or re-creation of one of them (the
    {!cache} a database keeps is cleared on both).  [version] (default
    0) stamps the plan's [compiled_version] with the database content
    version it was planned against.
    @raise Unknown_relation, Arity_mismatch as {!Eval} would. *)

(** {1 The plan cache and probing}

    A probe runs {!find}, which canonicalizes the query into one reused
    scratch — no key string, no binding record, slots found by a scan
    for a handful of variables — and finds its plan by a structural
    hash of the shape.  The scratch keeps the probe's binding until the
    next {!find} (so probing is not reentrant): {!first} executes over
    it, and {!var_name} names the slots of the witness {!first} leaves
    in the plan's {!frame}. *)

type cache
(** Plans by shape. *)

val create_cache : unit -> cache

val clear_cache : cache -> unit

val cache_size : cache -> int

val cache_plans : cache -> t list
(** Every cached plan, in no particular order. *)

val shape_key : t -> string
(** The plan's shape rendered as {!key} renders it. *)

val find :
  cache -> version:int -> (string -> Relation.t option) -> Counters.t ->
  Cq.t -> t
(** [find cache ~version lookup counters q] loads [q] into the scratch
    and returns its cached plan, stamping its [last_seen_version] with
    [version] and counting a plan hit, or compiles and caches one,
    counting a miss.
    @raise Unknown_relation, Arity_mismatch on bad queries. *)

val binding : unit -> binding
(** A fresh copy of the binding of the query last found. *)

val var_name : int -> string
(** The variable of the query last found that a slot holds. *)

val first : t -> Counters.t -> bool
(** [first plan counters] runs [plan], which {!find} just returned, over
    the scratch binding and stops at the first solution: [true] when
    there is one, left in {!frame}.  Allocates nothing. *)

val frame : t -> Value.t array
(** The plan's reused slot frame: after {!first} returned [true], slot
    [s] holds the witness's value of the variable {!var_name} [s].
    Overwritten by the plan's next {!first}. *)

val generation : unit -> int
(** Moves with every {!find}: {!frame} and {!var_name} describe the
    witness {!first} found while it has not moved. *)

val execute :
  t -> Counters.t -> binding -> on_frame:(Value.t array -> bool) -> unit
(** [execute plan counters binding ~on_frame] enumerates solutions in a
    fresh frame.  [on_frame] receives the binding frame — every slot
    holds its value; index with the positions of [binding.var_names] —
    and returns whether to continue.  The frame is reused between
    calls: callers must copy what they keep.  Tuples examined are added
    to [counters.tuples_scanned].
    @raise Invalid_argument if [binding] has the wrong parameter count. *)

val nslots : t -> int

(** {1 Observed statistics} *)

val stats : t -> stats
(** The plan's live statistics record (shared, mutable). *)

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
