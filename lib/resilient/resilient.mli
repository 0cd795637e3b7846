(** Resource-bounded, fault-tolerant probe execution.

    The paper's system evaluates entangled queries against a live MySQL
    backend inside an online coordination service (Section 6): probes
    cross a network, can be slow, fail transiently, or blow past an
    interactive deadline.  This module is the middleware between the
    solvers and the database that makes those failure modes first-class:

    - a {e per-solve budget} (probe attempts, tuples scanned, wall-clock
      deadline on the {!Obs.now_ns} monotonic clock) enforced before
      every probe attempt;
    - a {e per-probe timeout} checked against both injected and measured
      latency;
    - a deterministic {e fault injector} (transient/permanent failure
      probabilities and injected latency, drawn from a {!Prng.t} stream
      seeded by the configuration, so chaos runs replay exactly);
    - {e retry with exponential backoff and jitter} for transient
      faults, with attempts, retries and backoff totals recorded both in
      the guard's {!usage} record and as [Obs] counters/histograms.

    Solvers never see a transient fault that retries absorb.  What they
    do see is the typed {!error} taxonomy, delivered as the {!Abort}
    exception from inside a probe; every solver catches it at its work
    loop and returns a {e degraded} outcome — the candidates found so
    far plus a {!degradation} describing what went unprobed — instead of
    discarding completed work.

    A guard is {e armed} onto a database with
    [Relational.Database.set_guard]; with no guard installed the entire
    layer costs one field load and a branch per probe. *)

(** Which budget ran out. *)
type budget_kind =
  | Max_probes  (** probe-attempt budget (failed attempts count too) *)
  | Max_tuples  (** tuples-scanned budget *)
  | Deadline    (** per-solve wall-clock deadline *)

type error =
  | Timeout of { limit_ns : int64 }
      (** a probe's own execution exceeded the per-probe timeout
          (measured, not injected — injected timeouts are transient and
          retried) *)
  | Budget_exhausted of budget_kind
  | Probe_failed of { attempts : int; permanent : bool }
      (** the probe failed after [attempts] tries: a permanent injected
          fault, or transient faults/injected timeouts exhausting the
          retry allowance *)

exception Abort of error
(** Raised from inside a probe when the guard gives up.  Solvers catch
    this at their component/root/value loop and degrade. *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** {1 Configuration} *)

type fault_config = {
  fault_seed : int;        (** seeds the injector's private PRNG stream *)
  transient_rate : float;  (** per-attempt probability of a retryable failure *)
  permanent_rate : float;  (** per-attempt probability of a permanent failure *)
  latency_rate : float;    (** per-attempt probability of injected latency *)
  latency_ns : int64;      (** latency injected when the draw hits *)
}

val fault_defaults : fault_config
(** Seed 0, transient rate 0.1, no permanent faults, no injected
    latency. *)

type config = {
  max_probes : int option;       (** per-solve probe-attempt budget *)
  max_tuples : int option;       (** per-solve tuples-scanned budget *)
  deadline_ns : int64 option;    (** per-solve wall-clock deadline *)
  probe_timeout_ns : int64 option;  (** per-probe latency limit *)
  max_attempts : int;            (** tries per probe, >= 1 *)
  backoff_base_ns : int64;       (** first retry's backoff *)
  backoff_jitter : float;        (** uniform jitter fraction in [0, 1] *)
  faults : fault_config option;  (** [None]: injector off *)
}

val default_config : config
(** No limits, no faults: [max_attempts = 4], 1 ms base backoff with
    0.5 jitter.  Arming this config measures pure middleware overhead. *)

(** {1 Guards} *)

type t
(** A guard: one configuration plus per-solve mutable state (budget
    usage, deadline epoch, injector stream). *)

val arm : config -> t
(** @raise Invalid_argument on [max_attempts < 1], negative rates or a
    jitter outside [0, 1]. *)

val config : t -> config

val start_solve : t -> unit
(** Reset the per-solve budget, restart the deadline clock, and re-seed
    the fault injector from [fault_seed] — each armed solve replays the
    same fault schedule.  Call once before handing the database to a
    solver; nested solver calls share the enclosing budget. *)

(** Cumulative accounting since the last {!start_solve}. *)
type usage = {
  attempts : int;          (** probe attempts, including failed ones *)
  probes_ok : int;         (** probes that returned *)
  retries : int;           (** re-attempts after a transient fault *)
  transient_faults : int;
  permanent_faults : int;
  injected_timeouts : int; (** attempts whose injected latency beat the timeout *)
  backoff_ns : int64;      (** total backoff charged against the deadline *)
  injected_latency_ns : int64;
}

val usage : t -> usage

val pp_usage : Format.formatter -> usage -> unit
(** One line: attempts, successes, retries, fault counts, total
    (simulated) backoff. *)

val elapsed_ns : t -> int64
(** Time charged against the deadline since {!start_solve}: monotonic
    wall clock plus simulated backoff and injected latency. *)

val probe : t -> tuples_scanned:(unit -> int) -> (unit -> 'a) -> 'a
(** [probe t ~tuples_scanned f] runs one guarded probe: budget checks,
    fault injection, retries with backoff, timeout accounting.  [f] runs
    at most once per attempt and only on attempts the injector lets
    through, so retried probes never re-deliver solver callbacks from a
    completed evaluation.  Exceptions raised by [f] itself (engine
    errors) propagate untouched — they are bugs, not faults.
    @raise Abort when the guard gives up. *)

(** {1 Degradation} *)

type degradation = {
  reason : error;
  unprobed : int list list;
      (** work items the solver never evaluated, as groups of query
          indexes (components, roots, subset masks — solver-specific) *)
  note : string;  (** one-line human summary *)
}

val degraded : ?unprobed:int list list -> ?note:string -> error -> degradation

val pp_degradation : Format.formatter -> degradation -> unit

(** {1 Seeded disk faults}

    Crash simulation for the durability layer's chaos suite
    ([lib/durable], [test/test_durable.ml]): the same seeded,
    replayable discipline the probe injector applies to evaluation is
    applied to files.  Nothing here touches a live guard — these are
    offline mutations of WAL bytes between a simulated crash and the
    recovery under test. *)
module Disk_fault : sig
  type kind =
    | Torn_write of { keep : int }
        (** the final append only partially reached the disk: the file
            is cut at an arbitrary byte inside the unprotected tail *)
    | Lost_tail of { keep : int }
        (** a partial fsync: everything after the last known-synced
            offset vanishes at once *)
    | Bit_flip of { offset : int; mask : int }
        (** silent media corruption of one byte *)

  val pp : Format.formatter -> kind -> unit

  val draw : Prng.t -> protect:int -> size:int -> kind
  (** Draw a fault for a file of [size] bytes whose first [protect]
      bytes must stay intact (cut points land in [[protect, size - 1]],
      flips in the same range).  Deterministic in the PRNG state.
      @raise Invalid_argument when [size <= protect] — nothing left to
      corrupt. *)

  val apply : path:string -> kind -> unit
  (** Mutilate the file in place. *)
end

val backoff_ns : t -> int -> int64
(** [backoff_ns g i]: the sleep the guard charges for retry number [i]
    (0-based) — [backoff_base_ns] shifted left by [min i 20], then
    jittered uniformly into [[base*(1-j), base*(1+j)]].  Each call with
    a nonzero jitter consumes one draw from the guard's seeded stream,
    so two guards armed with the same config yield the same schedule.
    Exposed for the determinism tests. *)
