(** Database instances: named relations (each a row store,
    {!Relation}), a compiled-plan cache, and query-engine counters.

    The probe counter mirrors the metric the paper's experiments are
    driven by — the number of SQL queries sent to MySQL.  Every call
    that the conjunctive-query evaluator treats as "one database query"
    bumps it via {!count_probe}.  Alongside it live the plan-cache
    hit/miss counters and the tuples-scanned counter, all in one
    {!Counters.t} record with a single reset ({!reset_counters}). *)

type t

val create : unit -> t
(** [create ()] makes an empty instance. *)

val worker_view : ?guard:Resilient.t -> t -> t
(** [worker_view db] is a database handle for one parallel shard: it
    shares [db]'s relations and compiled-plan cache (and the lock that
    serialises cache fills), but carries fresh zeroed counters — merged
    back by the executor so totals equal the sequential run — and its
    own guard slot ([?guard], default unguarded) holding that shard's
    split budget rather than the parent's.  Views must treat the store
    as read-only; call {!warm_indexes} before sharing a store across
    domains so no lazy index build races. *)

val create_table : t -> Schema.t -> Relation.t
(** @raise Invalid_argument if a relation with the same name exists.
    Invalidates the plan cache. *)

val create_table' : t -> string -> string list -> Relation.t
(** [create_table' db name attrs] is [create_table db (Schema.make name attrs)]. *)

val drop_table : t -> string -> unit
(** Removes a relation; silently does nothing when absent.  Invalidates
    the plan cache when a relation is actually removed. *)

val relation : t -> string -> Relation.t
(** @raise Not_found when no relation has that name. *)

val relation_opt : t -> string -> Relation.t option

val mem_relation : t -> string -> bool

val relations : t -> Relation.t list
(** All relations, sorted by name. *)

val insert : t -> string -> Value.t list -> unit
(** [insert db rel vs] inserts the tuple [vs] into relation [rel].
    @raise Not_found when [rel] does not exist.
    @raise Invalid_argument on an arity mismatch. *)

type schema_error =
  | No_table of string
  | Bad_arity of { rel : string; expected : int; got : int }

val schema_error : t -> string -> int -> schema_error option
(** Why reading or writing [rel] with [arity] values would fail: no
    such table, or a table of another arity.  [None] when it would
    not. *)

val body_schema_error : t -> Cq.t -> schema_error option
(** The first body atom {!schema_error} refuses.  A query whose body
    passes can be planned ({!Plan}): none of its probes raises
    {!Plan.Unknown_relation} or {!Plan.Arity_mismatch}. *)

val pp_schema_error : Format.formatter -> schema_error -> unit
(** ["no table R"] or ["R has arity 2, got 1"]. *)

val active_domain : t -> Value.Set.t
(** Union of the active domains of all relations. *)

val total_tuples : t -> int

val data_version : t -> int
(** A stamp that moves whenever {e this} database's contents change —
    any successful insert or delete into one of its relations, any
    table created or dropped.  Per-database: mutations of other
    databases in the process never move it (each instance owns an
    atomic stamp, shared into its relations at {!create_table} and with
    its {!worker_view}s).  Callers use it to invalidate content-derived
    caches and to measure plan staleness
    ({!Plan.stats}[.compiled_version]). *)

(** {2 Plan cache}

    Compiled plans ({!Plan.t}) are cached per database instance, keyed
    by query shape — relation symbols and term pattern with constants
    abstracted — so isomorphic probes compile once.  The cache is
    cleared whenever a table is created or dropped. *)

val prepare : t -> Cq.t -> Plan.t * Plan.binding
(** [prepare db q] canonicalizes [q] and returns its compiled plan plus
    the instance binding (constants and variable names).  The plan is
    served from / stored into the shape cache, counting a hit or
    miss.
    @raise Plan.Unknown_relation, Plan.Arity_mismatch on bad queries. *)

val plan_cache_size : t -> int
(** Number of distinct query shapes currently cached. *)

val cached_plans : t -> (string * Plan.t) list
(** Snapshot of the plan cache, sorted by shape key (deterministic
    order), taken under the plan lock.  The plans are the live cached
    objects — their {!Plan.stats} keep accruing after the snapshot.
    What [solve --explain-analyze] renders. *)

(** {2 Counters} *)

val counters : t -> Counters.t
(** The live counters record (mutated in place by the engine). *)

val snapshot_counters : t -> Counters.t
(** An independent copy, for before/after accounting in solvers. *)

val reset_counters : t -> unit
(** Zero probes, plan hits/misses, and tuples scanned, together. *)

val count_probe : t -> unit
(** Record that one conjunctive query was issued against this instance.
    If a probe latency is configured, also stalls for that long. *)

val warm_indexes : t -> unit
(** {!Relation.warm_indexes} on every relation: force all lazy hash
    indexes to exist so concurrent readers never mutate the store. *)

val set_probe_latency : t -> float -> unit
(** [set_probe_latency db seconds] makes every probe cost an additional
    [seconds] of wall-clock time, emulating the client–server round trip
    of the paper's MySQL/JDBC setup (where per-query latency, not join
    work, dominates).  The stall is a true blocking sleep, so probes
    issued by concurrent domains overlap — the regime the
    [parallel-scaling] ablation measures.  Zero (the default) disables
    the stall. *)

val probe_latency : t -> float

(** {2 Resilience}

    An armed {!Resilient.t} guard turns every evaluator probe into a
    budgeted, fault-injectable, retried operation (see {!Resilient}).
    With no guard armed — the default — the middleware costs one field
    load and a branch per probe. *)

val set_guard : t -> Resilient.t option -> unit
(** Arm (or disarm, with [None]) the resilience middleware on this
    instance.  Callers own the per-solve lifecycle: run
    {!Resilient.start_solve} before handing the database to a solver. *)

val guard : t -> Resilient.t option

val probes : t -> int
(** Number of probes since creation or the last reset. *)

val reset_probes : t -> unit
(** Alias of {!reset_counters}: all engine counters share one reset so
    probe accounting can never drift from the cache and scan counters. *)

val pp : Format.formatter -> t -> unit
(** Prints every relation's schema and cardinality (not the tuples). *)
