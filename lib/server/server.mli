(** Coordination as a service: a long-lived socket server multiplexing
    many client sessions onto one {!Coordination.Online} engine, with
    the {!Durable} WAL underneath when durability is requested.

    The Enmeshed Queries system (Chen et al.) is the production shape
    this reproduces: clients submit coordination requests over a wire
    and receive asynchronous match notifications when a set fires.
    Multiplexing independent sessions onto one engine is justified by
    coordination avoidance — only graph-linked work must serialize, and
    the engine already serializes exactly that.

    {2 Wire protocol}

    Frames are 4-byte big-endian length prefixes followed by one JSON
    object ({!Json}).  Requests carry ["op"] and an optional ["id"]
    echoed verbatim in the response:

    - [{"id":1,"op":"submit","query":"q1 { ... }"}] — parse and submit
      one entangled query statement.  Responses: [result]
      ["coordinated"] (with the fired set), ["pending"] (with the
      assigned ["pool_id"]), or ["rejected_unsafe"].  A statement that
      does not parse (an out-of-range integer literal included) is
      refused with ["syntax"]; a body atom over a missing table or of
      the wrong arity with the same ["no_table"] / ["bad_arity"] frames
      an [insert] gets, before the query is admitted.  When the pending
      pool is at [max_pending] the typed failure
      [{"ok":false,"error":"overloaded"}] is returned instead of
      queueing unboundedly.
    - [{"op":"retire","pool_id":7}] — withdraw a pending submission
      ({!Coordination.Online.withdraw}).
    - [{"op":"flush"}] — evaluate pending components.
    - [{"op":"status"}] — engine counters, live sessions, WAL position.
    - [{"op":"subscribe"}] — opt into asynchronous notification frames:
      [{"notify":"matched","queries":[...]}] after any set fires and
      [{"notify":"degraded","reason":...}] when an evaluation hit an
      armed {!Resilient} guard limit.
    - [{"op":"insert","rel":"F","tuple":[1,"Zurich"]}] and
      [{"op":"create_table","name":"F","attrs":["fid","dest"]}] — store
      mutations, journaled like repl [fact]/[table] statements.  A tuple
      of the wrong arity is refused with ["bad_arity"], an existing
      table name with ["table_exists"], and an empty name, an empty
      attribute list or a duplicate attribute with ["bad_schema"].

    A [\u]-escaped surrogate pair decodes to the same UTF-8 bytes as
    the raw character.  Malformed JSON (including a non-hex [\u]
    escape or an unpaired surrogate), unknown ops and
    bad arguments get [{"ok":false,"error":...}] responses; framing
    stays intact, the session survives.  A request that raises an
    exception the protocol does not know gets
    [{"id":...,"ok":false,"error":"internal_error"}] and records a
    flight-recorder incident; only [Out_of_memory], [Stack_overflow]
    and a WAL write failure ({!Durable.Wal_failed}) propagate out of
    {!step}.  Oversized frames and clients that stop
    draining their socket are abnormal disconnects: the session is torn
    down (flight-recorder incident, resources released), others
    continue.

    {2 Threading model}

    The server is a single-threaded [select] loop.  {!step} runs one
    round (accept, read, dispatch, write) and is public so tests and
    benchmarks can drive a server and in-process clients
    deterministically from one thread; {!run} loops {!step}.  Sessions
    are processed in session-id order, so a given arrival order always
    produces the same engine-operation order — the property the
    differential suite leans on. *)

(** The frame codec: an alias of the tree's one JSON module
    ({!Json}, in [lib/json]).  It stays only because [perfbench/]
    spells the codec [Server.Json]; new code names [Json] directly. *)
module Json = Json

type listen =
  | Unix_socket of string  (** path; unlinked on {!stop} *)
  | Tcp of string * int    (** host, port; port [0] binds ephemeral *)

type config = {
  listen : listen;
  max_pending : int;
      (** admission control: submissions arriving with this many
          entries already pending are refused with an [overloaded]
          frame instead of growing the pool unboundedly *)
  max_sessions : int;
      (** stop after this many sessions have disconnected ([0] = serve
          forever) — scripted tests and cram sessions use this to
          terminate deterministically *)
  max_frame : int;  (** largest accepted frame payload, bytes *)
  max_buffered : int;
      (** per-session outbound backlog cap: a client that stops
          reading is disconnected, not buffered forever *)
  verbose : bool;  (** print session lifecycle lines to stdout *)
}

val default_config : listen -> config
(** [max_pending 1024], [max_sessions 0], [max_frame 1 MiB],
    [max_buffered 4 MiB], quiet. *)

(** The engine a server multiplexes onto: always the sequential
    incremental engine ({!Coordination.Online}), the one a durable
    binding's WAL journals.  The one-constructor variant stays only
    because [perfbench/] spells [Server.Sequential]. *)
type engine = Sequential of Coordination.Online.t

(** What the server serves: one engine, its database, optionally the
    WAL handle journaling it and a {!Resilient} guard armed on the
    database ({!Resilient.start_solve} is called per request). *)
type binding = {
  db : Relational.Database.t;
  engine : engine;
  durable : Durable.t option;
  guard : Resilient.t option;
}

type t

val create : config -> binding -> t
(** Bind and listen.  Ignores [SIGPIPE] process-wide (a disconnecting
    client must surface as [EPIPE] on that session's writes, never as a
    process-killing signal).
    @raise Unix.Unix_error when the address cannot be bound. *)

val step : ?timeout:float -> t -> bool
(** One event-loop round, blocking in [select] at most [timeout]
    seconds (default 0.05).  Returns [false] once the server stopped —
    {!stop} was called or [max_sessions] sessions have come and gone
    (the listener closes as soon as that many sessions have been
    accepted).
    @raise Durable.Wal_failed when the binding's WAL cannot be written.
    The request that hit it gets no response; the server must stop,
    and a restart recovers what the WAL holds. *)

val run : t -> unit
(** Loop {!step} until it returns [false].
    @raise Durable.Wal_failed as {!step}. *)

val stop : t -> unit
(** Close every session and the listener (unlinking a Unix-socket
    path).  Does NOT close the binding's [durable] handle — the caller
    owns it; tests simulate a crash by stopping the server and
    recovering the WAL directory without a clean {!Durable.close}. *)

val port : t -> int
(** The actually-bound TCP port (useful with [Tcp (_, 0)]).
    @raise Invalid_argument on a Unix-socket server. *)

val live_sessions : t -> int

val sessions_served : t -> int
(** Sessions accepted over the server's lifetime (live ones included). *)

(** A blocking client for the frame protocol — the CLI [client]
    subcommand, the cram scripts and the bench harness all speak
    through this. *)
module Client : sig
  type conn

  exception Bad_frame of string
  (** The server's byte stream cannot be read as frames: a length
      prefix that is negative or above 64 MiB (far above any frame a
      server's [max_buffered] cap lets through), or a complete frame
      whose payload is not JSON; the payload says which.  A bad length
      loses framing, so the connection is unusable afterwards; a
      non-JSON frame is consumed, and the next {!recv} reads the frame
      after it. *)

  val connect : ?retries:int -> listen -> conn
  (** Retries [ECONNREFUSED]/[ENOENT] with a 50 ms pause, [retries]
      times (default 40 — two seconds for a server still starting). *)

  val send : conn -> Json.t -> unit
  val recv : ?timeout:float -> conn -> Json.t option
  (** Next frame, blocking up to [timeout] seconds (default 5).
      [None] on timeout or EOF.
      @raise Bad_frame on a bad length prefix or a non-JSON payload. *)

  val try_recv : conn -> Json.t option
  (** Non-blocking: a frame if one is already buffered/readable.  Used
      by in-process tests that interleave {!step} calls with client
      reads on one thread.
      @raise Bad_frame as {!recv}. *)

  val close : conn -> unit

  val abort : conn -> unit
  (** Close abruptly with pending data unread and linger zeroed where
      possible — the mid-stream client death the SIGPIPE tests need. *)
end
