(** Structured tracing and metrics for the engine and the solvers.

    A process-wide, zero-dependency observability layer: monotonic-clock
    spans with parent/child nesting, typed events, log2-bucketed
    histograms and labeled counters, and pluggable sinks (JSONL,
    Chrome [trace_event] JSON loadable in
    [chrome://tracing] / Perfetto, and an in-memory sink for tests and
    {!Coordination.Explain}).

    When nothing is armed — no sink installed, metrics off — every
    instrumentation site reduces to one load and a branch, so the
    engine can stay instrumented permanently (verified by the
    [observability] ablation in [bench/ablations.ml]).

    The process runs on one OCaml domain: the arming state (sinks,
    nesting depth, metrics flag, flight-recorder ring) and the
    {!Histogram} and {!Counter} registries are plain module-level
    state. *)

val now_ns : unit -> int64
(** Monotonic timestamp in nanoseconds ([CLOCK_MONOTONIC]): differences
    are durations, immune to wall-clock adjustment.  The epoch is
    arbitrary (boot time on Linux) — only differences are meaningful. *)

(** Argument values attached to spans and events. *)
type arg = Str of string | Int of int | Float of float | Bool of bool

(** Typed payloads let instrumentation points attach structured data
    (e.g. {!Coordination.Scc_algo.event}) that in-process consumers
    recover exactly, while serializing sinks render only the plain
    [args].  Extend with [type Obs.payload += My_event of t]. *)
type payload = ..

type payload += No_payload

type span = {
  name : string;
  start_ns : int64;  (** monotonic start time *)
  dur_ns : int64;
  depth : int;       (** nesting depth at entry; top-level spans are 0 *)
  args : (string * arg) list;
}

type event = {
  ev_name : string;
  ev_ts_ns : int64;
  ev_depth : int;
  ev_args : (string * arg) list;
  ev_payload : payload;
}

type item = Span of span | Event of event

(** {1 Arming} *)

val enabled : unit -> bool
(** Anything armed at all (sink installed, metrics on, or the
    {!Flight_recorder} recording).  The guard for
    instrumentation whose cost must vanish otherwise. *)

val tracing : unit -> bool
(** At least one sink is installed.  Deliberately {e false} when only
    the {!Flight_recorder} is armed, so arming the recorder never
    switches on the work solvers do only for a sink (building explain
    payloads, forcing args). *)

val metrics_on : unit -> bool

val set_metrics : bool -> unit
(** Turn histogram/counter recording on or off. *)

(** {1 Metrics} *)

module Histogram : sig
  (** Log2-bucketed histograms in a process-wide registry.  Bucket 0
      counts values [<= 0]; bucket [i >= 1] counts values in
      [2^(i-1), 2^i). *)

  type t

  val make : ?help:string -> string -> t
  (** Get-or-create by name (process-wide). *)

  val find : string -> t option

  val observe : t -> int64 -> unit

  val observe_i : t -> int -> unit
  (** Unboxed fast path, equivalent to [observe h (Int64.of_int v)].
      Armed spans record through this so the hot path allocates
      nothing. *)

  val count : t -> int

  val sum : t -> int64

  val max_value : t -> int64
  (** Exact observed maximum ([0L] when empty). *)

  val percentile : t -> float -> float
  (** [percentile h 0.99]: estimate by linear interpolation inside the
      rank's bucket; within a factor of 2 (one bucket), capped at the
      exact observed maximum.  [0.0] when empty. *)

  val buckets : t -> int array

  val bucket_of : int64 -> int
  (** Index of the bucket a value lands in (exposed for tests). *)

  val bucket_bounds : int -> int64 * int64
  (** [(inclusive lower, exclusive upper)] value bounds of a bucket. *)

  val reset : t -> unit
end

module Counter : sig
  (** Monotone counters in the same process-wide registry. *)

  type t

  val make : ?help:string -> string -> t

  val labeled : ?help:string -> string -> string -> t
  (** [labeled name label] registers ["name{label}"] — a labeled family
      member that dumps alongside its base counter. *)

  val find : string -> t option

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int

  val reset : t -> unit
end

module Gauge : sig
  (** Last-write-wins instantaneous values (cache sizes, ratios,
      versions) in the same process-wide registry discipline as
      {!Counter}. *)

  type t

  val make : ?help:string -> string -> t

  val find : string -> t option

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float

  val reset : t -> unit
end

val reset_metrics : unit -> unit
(** Zero every registered counter, gauge and histogram (registrations
    remain). *)

val pp_metrics : Format.formatter -> unit -> unit
(** Dump the registry: one line per counter and gauge, one per
    histogram with count and p50/p95/p99/max in microseconds. *)

val metrics_json : unit -> string
(** The whole registry as one JSON document:
    [{"counters": [{"name", "value"}...], "gauges": [...],
    "histograms": [{"name", "count", "sum", "max", "p50", "p95",
    "p99"}...]}], names sorted.  Histogram values are nanoseconds (or
    whatever unit the histogram observes). *)

val metrics_prometheus : unit -> string
(** The registry in Prometheus exposition text: every name prefixed
    [entangle_] and sanitised, [# HELP]/[# TYPE] headers, labeled
    registry entries (["name{label}"]) rendered as [label="..."] pairs,
    histograms as summaries with [quantile] labels plus [_sum] and
    [_count]. *)

(** {1 Spans and events} *)

val with_span :
  ?args:(unit -> (string * arg) list) ->
  ?hist:Histogram.t ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] times [f] and reports it to every sink as a span
    nested under the enclosing [with_span].  [args] is a thunk,
    evaluated once after [f] returns (so it can report deltas) and only
    when a sink is installed (the {!Flight_recorder} alone records the
    span without args — see its docs).  [hist], if given, receives the
    span duration in nanoseconds whenever metrics are on — even with no
    sink installed.  Disarmed cost: one branch.  Exceptions propagate;
    the span still closes. *)

val timed_span :
  ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a * int64
(** [timed_span name f] is {!with_span} that also returns the duration
    in nanoseconds: the span's own two clock reads when it is recorded,
    two reads of the same clock when nothing is armed.  For a caller
    that charges the time to its own counters (as {!Stats} does), so an
    armed span costs no extra clock pair. *)

val event :
  ?args:(unit -> (string * arg) list) -> ?payload:payload -> string -> unit
(** Instant event at the current nesting depth; dropped unless a sink
    is installed or the {!Flight_recorder} is recording (ring-only, args stay unforced — see the recorder's docs). *)

(** {1 Sinks} *)

type sink

val install : sink -> unit

val remove : sink -> unit

val close : sink -> unit
(** Let the sink write its trailer and flush.  Does not close the
    underlying channel. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install around [f], then remove and {!close} (also on exception). *)

val jsonl_sink : (string -> unit) -> sink
(** One JSON object per line through the writer:
    [{"type": "span"|"event", "name", "ts_us", "dur_us"?, "depth",
    "args"}].  Timestamps are microseconds since sink creation. *)

val chrome_sink : (string -> unit) -> sink
(** Chrome [trace_event] JSON array: ["ph": "X"] complete events for
    spans, ["ph": "i"] instants for events.  {!close} writes the closing
    bracket — without it the file is not valid JSON. *)

val memory_sink : unit -> sink * (unit -> item list)
(** In-memory sink and a drain returning items in emission order
    (spans appear at their close time), payloads intact. *)

(** {1 Flight recorder}

    A fixed-capacity, drop-oldest ring buffer of {!item}s, recording
    every span and event the process emits whether or not any sink is
    installed.  The ring is an array of preallocated mutable
    slot records and a push overwrites one slot's fields in place, so
    recording allocates nothing and dirties one cache line;
    to keep that cost (~100ns/item), ring-only recording stores names,
    times and depths but does {e not} force [args] thunks — full args
    appear whenever a sink is also installed, and {!incident} pushes
    its [reason] arg explicitly so aborts keep their cause.  Disarmed
    it adds one load and branch to the instrumentation guard.  Unlike a
    sink, the recorder does not make {!tracing} true, so arming it never
    changes solver behaviour.

    On an {!Flight_recorder.incident} — reported by the resilience
    layer on a typed [Abort], by the durable layer on a WAL failure,
    by the server on a failed session — the ring's window is
    written once to the configured dump path (Chrome trace_event JSON, or JSONL when the path ends in
    [.jsonl]), giving a post-hoc view of the moments preceding the
    failure. *)
module Flight_recorder : sig
  val arm : ?capacity:int -> unit -> unit
  (** Arm the recorder with a ring of [capacity] items (default 1024 —
      about 50KB of slots, small enough to live in L2 under the
      evaluator's working set).  Re-arming keeps the current ring and
      resets the dumped-once latch.
      @raise Invalid_argument if [capacity < 1]. *)

  val disarm : unit -> unit
  (** Disarm and drop the ring. *)

  val armed : unit -> bool

  val set_dump_path : string option -> unit
  (** Where {!incident} writes the window ([None] disables
      dumping; incidents are still counted and marked in the ring). *)

  val incident : string -> unit
  (** Report a failure worth a flight dump.  Counts
      [flight.incidents], appends a ["flight.incident"] event (carrying
      [reason]) to the ring, and — first incident since arming only —
      dumps the window to the dump path.
      No-op when disarmed. *)

  val items : unit -> item list
  (** The ring, oldest first (empty when disarmed). *)
end
