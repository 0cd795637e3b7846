(** Durability for the online coordination engine: a checksummed binary
    write-ahead log plus periodic snapshots, and a recovery path that
    tolerates arbitrarily torn tails.

    {2 What is journaled}

    The engine journals {e effects}, not computations
    ({!Coordination.Online.Journal}): admissions, unsafe evictions,
    fired-set retirements and the two-phase consume commit's
    deduplicated deletion list, grouped per public operation.  A group
    becomes durable atomically — its last record carries a commit flag,
    and recovery replays only complete groups — so a crash at any byte
    offset recovers to an operation boundary: the pool, satisfied count
    and store either include a whole operation or none of it, and a
    booked tuple can never be spent twice.

    {2 On-disk layout}

    A WAL directory holds segments [wal-<first-lsn>.log] and snapshots
    [snap-<lsn>.img].  Records are length-prefixed and CRC32-checksummed
    with strictly monotonic LSNs; segments start at the LSN in their
    name.  Snapshots serialize the full recoverable state (engine meta,
    pool, satisfied count, store contents via a snapshot-local value
    dictionary) and are written to a temporary
    file, fsynced, atomically renamed, and fsynced into the directory;
    only then does the WAL rotate to a fresh segment and prune history
    (the latest two snapshots and the segments they need are kept).

    The meta record and the snapshot header carry four bytes: a
    storage backend (0 row, 1 row plus a columnar mirror), an
    evaluate-on-arrival flag, the consume flag and a selection
    criterion (0 largest, 1 first found).  Only consume still
    configures the engine; the others are always written as 0, 1 and
    0.  A backend or selection byte above 1 is a payload decode error;
    otherwise they are ignored, so a journal written with a deferred
    or first-found engine recovers onto today's engine with the same
    pool, ids, satisfied count and store.

    {2 Recovery and truncation}

    {!recover} loads the newest snapshot that passes validation
    (corrupt ones are skipped with a reason), replays the WAL tail, and
    stops at the first torn, short, bit-flipped or garbage record —
    reporting a typed {!truncation} rather than raising.  The valid
    prefix is then made durable again by a recovery checkpoint: a fresh
    snapshot at the recovered LSN, a fresh segment, and deletion of all
    older files including the torn bytes (truncation by checkpoint —
    nothing is ever patched in place, so a crash during recovery is
    itself recoverable). *)

open Relational
open Coordination

(** {1 Configuration} *)

(** When the WAL reaches the platter.  [Always] fsyncs every committed
    operation group (no committed operation can be lost); [Every_n n]
    fsyncs every [n] groups and on snapshot/close (bounded loss window,
    much cheaper); [Never] leaves flushing to the OS page cache (data
    survives process crashes but not power loss).  The [durability]
    bench ablation measures the per-submit cost of each. *)
type fsync_policy = Always | Every_n of int | Never

val fsync_policy_to_string : fsync_policy -> string

val fsync_policy_of_string : string -> fsync_policy option
(** ["always"], ["never"], or ["every-n:<N>"] with [N >= 1]. *)

type config = {
  dir : string;  (** the WAL directory (created if missing) *)
  fsync : fsync_policy;
  snapshot_every : int;
      (** take a snapshot after this many committed groups;
          [0] disables periodic snapshots *)
}

val config : ?fsync:fsync_policy -> ?snapshot_every:int -> string -> config
(** [config dir] with [fsync] defaulting to [Always] and
    [snapshot_every] to [512]. *)

(** {1 The live handle} *)

type t

val create_engine : ?consume:bool -> config -> t * Database.t * Online.t
(** Create a fresh durable engine: an empty database and
    {!Coordination.Online} engine whose operations journal through the
    WAL in [config.dir].  The engine meta ([consume]) is the WAL's
    first record, so {!recover} can rebuild an equivalent engine
    without being told.
    @raise Invalid_argument if the directory already holds WAL files
    (use {!recover} or {!open_or_recover}). *)

exception Wal_failed of string
(** The journal could not be written: an I/O error while appending,
    syncing or rotating a segment (the payload says which).  The
    engine has already moved past what the WAL holds, and after a
    failed fsync a later one proves nothing, so the handle is
    {e fail-stop}: it records a flight-recorder incident and every
    later journaled operation raises [Wal_failed] again.  The caller
    must stop; a restart recovers exactly what the WAL holds. *)

val close : t -> unit
(** Flush, fsync (unless the policy is [Never]) and close the current
    segment, detaching the journal sink.  A failed handle is closed
    without writing.  Idempotent.
    @raise Wal_failed if the final flush or fsync fails. *)

val snapshot : t -> (unit, string) result
(** Force a snapshot + segment rotation + prune now (the same protocol
    periodic snapshots use).  [Error why] when the snapshot file could
    not be written (full disk, permissions): the failure is counted on
    [wal.snapshot_failures] and emitted as a [durable.snapshot_failure]
    event, the current segment keeps growing, and {e nothing is
    pruned} — the journal the snapshot would have superseded remains
    the only durable copy, so recovery still replays it.  Periodic
    snapshots retry after another [snapshot_every] interval.
    @raise Wal_failed if the journal itself cannot be synced or its
    next segment cannot be opened. *)

val journal_insert : t -> string -> Value.t list -> unit
(** Journal an external tuple insert (e.g. a repl [fact] statement) as
    its own committed group.  The caller performs the actual
    {!Relational.Database.insert}; replay re-issues it.
    @raise Wal_failed if the group cannot be written; so does every
    engine operation journaled through this handle. *)

val journal_create_table : t -> string -> string list -> unit
(** Journal an external table creation; see {!journal_insert}. *)

val dir : t -> string

val current_segment : t -> string
(** Path of the segment currently appended to. *)

val wal_offset : t -> int
(** Bytes written to the current segment (committed groups only — the
    in-flight group buffers in memory until its [Op_end]). *)

val synced_offset : t -> int
(** Bytes of the current segment known fsynced ([<= wal_offset];
    trailing [wal_offset - synced_offset] bytes may vanish on a power
    loss).  Chaos tests cut files here to simulate exactly that. *)

val last_lsn : t -> int64
(** LSN of the last record written (snapshots cover up to this). *)

(** {1 Recovery} *)

(** Why scanning stopped: the typed corruption taxonomy.  Every one of
    these truncates; none of them raises. *)
type corruption =
  | Short_record  (** the file ends inside a record *)
  | Bad_length  (** a length prefix outside the sane record range *)
  | Bad_crc  (** checksum mismatch — torn write or bit flip *)
  | Bad_lsn  (** a gap or repeat in the LSN chain *)
  | Bad_kind  (** an unknown record kind *)
  | Bad_header  (** a segment whose header magic or LSN is wrong *)
  | Bad_payload  (** a checksummed record whose payload fails to decode *)
  | Uncommitted_group
      (** the segment ends with complete records whose group never
          committed — the crash landed between buffering and commit *)

val corruption_to_string : corruption -> string

type truncation = {
  t_segment : string;  (** the segment holding the torn tail *)
  valid_bytes : int;  (** prefix kept: offset of the last committed group end *)
  dropped_bytes : int;  (** bytes discarded after it *)
  reason : corruption;
}

type recovery_report = {
  snapshot_loaded : (string * int64) option;
      (** the snapshot restored, with its covered LSN *)
  snapshots_skipped : (string * string) list;
      (** corrupt or unreadable snapshots passed over, with reasons *)
  segments_scanned : int;
  records_replayed : int;  (** records applied from the WAL tail *)
  groups_replayed : int;  (** committed groups among them *)
  recovered_lsn : int64;  (** state is exact as of this LSN *)
  truncation : truncation option;  (** [None] means a clean tail *)
  segments_dropped : string list;
      (** segments after a truncation, discarded whole *)
  tmp_cleaned : string list;
      (** leftover [.tmp] files from an interrupted snapshot *)
  checkpoint_failed : string option;
      (** [Some why] when the post-recovery checkpoint snapshot could
          not be written.  Recovery still succeeds when the tail was
          clean — the pre-existing snapshot and segments are retained
          (no prune) and stay authoritative — but fails with [Error _]
          when a truncation needed quarantining, since appending behind
          un-quarantined torn bytes would lose future groups. *)
}

val pp_report : Format.formatter -> recovery_report -> unit

val recover :
  config -> (t * Database.t * Online.t * recovery_report, string) result
(** Rebuild the engine from [config.dir]: load the newest valid
    snapshot, replay the WAL tail group by group, stop cleanly at any
    corruption, then checkpoint (see the module comment).  The returned
    engine observes — pool, ids, components, satisfied count, store
    contents — exactly as a never-crashed engine after the same
    committed operations; solver statistics do not survive, and every
    recovered component is conservatively dirty.  [Error _] when the
    directory holds no recoverable state at all. *)

val open_or_recover :
  ?consume:bool ->
  config ->
  (t * Database.t * Online.t * recovery_report option, string) result
(** {!recover} when [config.dir] already holds WAL files ([consume] is
    then ignored in favour of the journaled meta), else
    {!create_engine}. *)

(** {1 Wire-format internals, exposed for tests} *)

val inject_snapshot_failure : exn option -> unit
(** Test-only: make the next snapshot writes raise [e] (e.g. a
    [Unix.Unix_error (EACCES, _, _)]) instead of touching the
    filesystem, simulating a full disk or permission failure the test
    harness cannot provoke for real.  [None] clears the fault. *)

val inject_journal_failure : exn option -> unit
(** Test-only: make the next journal group writes raise [e] (e.g. a
    [Unix.Unix_error (EIO, _, _)]) in place of the write, so a test can
    drive the {!Wal_failed} path.  [None] clears the fault. *)

module Crc32 : sig
  val string : string -> int
  (** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a whole string;
      ["123456789"] hashes to [0xCBF43926]. *)

  val bytes : ?crc:int -> Bytes.t -> int -> int -> int
  (** [bytes ~crc b off len] continues a running checksum. *)
end
