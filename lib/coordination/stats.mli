(** Instrumentation shared by all solvers.

    The paper's experiments measure total processing time, the time spent
    in graph construction and preprocessing (Figure 6), and are driven by
    the number of database queries issued.  Every solver fills one of
    these records. *)

type t = {
  mutable db_probes : int;       (** conjunctive queries issued *)
  mutable graph_ns : int64;      (** graph build + preprocessing + SCC *)
  mutable unify_ns : int64;      (** unification work *)
  mutable ground_ns : int64;     (** database evaluation *)
  mutable total_ns : int64;      (** whole solver call *)
  mutable candidates : int;      (** candidate sets considered *)
  mutable grounded_members : int;
      (** member bodies the SCC algorithm sent to the evaluator,
          summed over candidates *)
  mutable cleaning_rounds : int; (** consistent algorithm cleaning passes *)
  mutable plan_hits : int;       (** compiled plans served from the cache *)
  mutable plan_misses : int;     (** compiled plans built from scratch *)
  mutable tuples_scanned : int;  (** tuples examined by the evaluator *)
}

val create : unit -> t

val merge : into:t -> t -> unit
(** [merge ~into from] adds every field of [from] into [into] — counts
    and timing spans alike.  This is the {e only} place a [Stats.t] is
    folded into another; accumulate through it so a newly added field
    cannot be silently dropped from cumulative totals. *)

val add_counters : t -> Relational.Counters.t -> unit
(** [add_counters stats delta] folds a query-engine counter delta
    (typically [Counters.diff] of two {!Relational.Database.snapshot_counters})
    into the solver's record: probes, plan hits/misses, tuples scanned. *)

val same_counters : t -> t -> bool
(** Equality on every deterministic (non-timing) field: probes,
    candidates, grounded members, cleaning rounds, plan hits/misses, tuples scanned.  The
    executor's differential tests compare parallel and sequential runs
    with this — timing spans necessarily differ. *)

val now_ns : unit -> int64
(** Monotonic timestamp in nanoseconds (delegates to {!Obs.now_ns}, i.e.
    [CLOCK_MONOTONIC]); differences are durations, immune to wall-clock
    adjustment. *)

val pp : Format.formatter -> t -> unit

val to_row : t -> (string * string) list
(** Key/value view for the benchmark harness's tabular output. *)
