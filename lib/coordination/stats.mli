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
  mutable commit_ns : int64;
      (** the online engine's fire commits: retiring the fired set,
          its journal records, the inventory it consumes and its
          witness when one is asked for; outside [total_ns], and never
          charged by a submit that fires nothing *)
  mutable admit_ns : int64;
      (** the online engine's admissions: index probes, edge discovery,
          fuse and a submit's proven-quiet check; outside [total_ns] *)
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

val pp : Format.formatter -> t -> unit
