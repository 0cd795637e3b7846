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
    pool, satisfied count, store contents) and are written to a
    temporary file, fsynced, atomically renamed, and fsynced into the
    directory; only then is history pruned (the latest two snapshots
    and the segments they need are kept) and the WAL rotated to a fresh
    segment.  An image lists the tables in database order, each with
    its live tuples in row order ({!Relational.Relation.iter}), their
    values inline, so encoding it is one pass over the store.  Recovery
    re-inserts the tuples in that order: a recovered store iterates, and
    answers first-answer probes, as the live one did.  Images an older
    writer left (["EWALSNP1"]: tuples in {!Relational.Tuple.compare}
    order, values in a snapshot-local dictionary) are still read, and
    the recovery checkpoint replaces them with the current format.

    {2 Snapshots off the request path}

    The request thread only encodes.  A periodic snapshot is due at the
    first commit where two things hold since the last hand-off: at
    least [snapshot_every] groups have committed, and the journal
    written (plus what a {!batch} has deferred) is at least as many
    bytes as the last image's payload — the image handed off last,
    periodic or forced, or on a recovered handle the recovery
    checkpoint's (the loaded image's when the checkpoint failed; 0 for
    a fresh WAL).  So the journal between two images is at least as
    large as the earlier one, and the encodes stay in proportion to
    the journal written however large the store grows.  The operation
    that commits the due group writes the groups a {!batch} deferred,
    encodes the image, lists what it will supersede, and hands the
    bytes, its LSN and the segment's descriptor to a writer thread,
    then returns.  The writer fsyncs the WAL prefix the image covers
    (unless already synced), checksums the image, writes, fsyncs and
    renames it, fsyncs the directory and prunes; then it ends.  It is a POSIX
    thread that never enters the OCaml runtime, so it never takes the
    runtime lock the request thread runs under (the process still runs
    OCaml on one domain).
    The next journaled operation learns that it has ended: on success
    the request thread rotates to a fresh segment; on a snapshot-file
    failure it keeps appending, with nothing pruned; on a failed
    WAL-prefix fsync the handle fails ({!Wal_failed}).  At most one
    snapshot is in flight: one that comes due while another is written
    waits, its counts kept, and is handed off at the first commit after
    the writer has settled.  Until the rotation the
    current segment runs past the image's LSN, and {!recover} replays
    that tail from it.

    The replay bound: after an image's hand-off, the next one comes
    within max([snapshot_every] groups, the groups that reach the
    image's payload in bytes, the crossing group included, one group
    past those committed while the image was in flight).  So, barring a
    failed snapshot, recovery replays at most that from the image it
    loads, plus the groups committed since the next image's hand-off
    when a crash cut that image short.

    The [wal.snapshot_encode_ns] histogram times the request thread's
    part (encode and rotation), [wal.snapshot_write_ns] the writer's.
    [wal.append_ns] times each segment write (with its fsync, when the
    policy asks for one): its count is the number of writes, against
    [wal.groups] committed groups.

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
    snapshot at the recovered LSN, then deletion of every other
    snapshot, segment and [.tmp] file, whatever its LSN (the torn bytes
    included), and a fresh segment (nothing is ever patched in place,
    so a crash during recovery is itself recoverable). *)

open Relational
open Coordination

(** {1 Configuration} *)

(** When the WAL reaches the platter.  [Always] fsyncs every committed
    operation group (no committed operation can be lost); [Every_n n]
    fsyncs every [n] groups and on snapshot/close (bounded loss window,
    much cheaper); [Never] leaves flushing to the OS page cache (data
    survives process crashes but not power loss).  Inside a {!batch}
    the policy applies once, to the batch's one write. *)
type fsync_policy = Always | Every_n of int | Never

val fsync_policy_to_string : fsync_policy -> string

val fsync_policy_of_string : string -> fsync_policy option
(** ["always"], ["never"], or ["every-n:<N>"] with [N >= 1]. *)

(** A snapshot's steps, in order: fsync the WAL prefix the image
    covers (when unsynced), write and fsync [snap-<lsn>.img.tmp], rename
    it into place, fsync the directory, delete what it supersedes. *)
type step = Sync_wal | Write_tmp | Rename | Sync_dir | Prune

(** A call that changes the WAL directory.  With a test seam,
    [config ~io dir], the handles made from that config run [io call]
    before each such call, on the calling thread.  A [Unix.Unix_error]
    from [io] stands in for the call's failure and takes a real one's
    path: a journal write, fsync or segment open fails the handle
    ({!Wal_failed}), a snapshot step ends that snapshot with [Error]
    (the recovery checkpoint's with [checkpoint_failed]).  Any other
    exception propagates, leaving the directory as a crash there
    would.  A handle with a seam starts no writer thread. *)
type io_call =
  | Segment_create  (** create a segment *)
  | Segment_header  (** write its header *)
  | Dir_sync  (** fsync the directory after creating it *)
  | Append  (** write committed groups *)
  | Segment_sync  (** fsync the current segment *)
  | Step of step  (** a snapshot step *)

type config = {
  dir : string;  (** the WAL directory (created if missing) *)
  fsync : fsync_policy;
  snapshot_every : int;
      (** the floor of the snapshot cadence: hand a snapshot to the
          writer thread once at least this many groups have committed
          since the last hand-off {e and} the journal written since is
          at least the last image's payload in bytes (see "Snapshots
          off the request path", with the replay bound this gives);
          [0] disables periodic snapshots.  At most one is in flight:
          one that comes due while another is written is handed off at
          the first commit after that one settles. *)
  io : (io_call -> unit) option;  (** the test seam *)
}

val config :
  ?fsync:fsync_policy -> ?snapshot_every:int -> ?io:(io_call -> unit) ->
  string -> config
(** [config dir] with [fsync] defaulting to [Always], [snapshot_every]
    to [512] and no seam. *)

(** {1 The live handle} *)

type t

val create_engine : ?consume:bool -> config -> t * Database.t * Online.t
(** Create a fresh durable engine: an empty database and
    {!Coordination.Online} engine whose operations journal through the
    WAL in [config.dir].  The engine meta ([consume]) is the WAL's
    first record, so {!recover} can rebuild an equivalent engine
    without being told.
    @raise Invalid_argument if the directory already holds WAL files
    (use {!recover} or {!open_or_recover}).
    @raise Sys_error if the first segment cannot be created. *)

exception Wal_failed of string
(** The journal could not be written: an I/O error while appending,
    syncing or rotating a segment (the payload says which).  The
    engine has already moved past what the WAL holds, and after a
    failed fsync a later one proves nothing, so the handle is
    {e fail-stop}: it records a flight-recorder incident and every
    later journaled operation raises [Wal_failed] again.  The caller
    must stop; a restart recovers exactly what the WAL holds. *)

val close : t -> unit
(** Wait for a snapshot in flight, then flush, fsync (unless the policy
    is [Never]) and close the current segment, detaching the journal
    sink.  The waited-for snapshot is settled like any other (counted,
    or surfaced as a failure) but not followed by a rotation.  A failed
    handle is closed without writing.  Idempotent.
    @raise Wal_failed if the final flush or fsync fails, or the
    snapshot in flight could not fsync the WAL prefix. *)

val snapshot : t -> (unit, string) result
(** Take a snapshot now through the same writer steps periodic
    snapshots use, and wait for it: a snapshot already in flight is
    settled first (at most one is in flight), then the current state is
    encoded, written, installed and pruned, and the WAL rotates.
    [Error why] when the snapshot file could not be written (full disk,
    permissions): the failure is counted on [wal.snapshot_failures]
    and emitted as a [durable.snapshot_failure] event, the current
    segment keeps growing, and {e nothing is pruned} — the journal the
    snapshot would have superseded remains the only durable copy, so
    recovery still replays it.  A failed periodic snapshot surfaces the
    same way at the next journaled operation, and periodic snapshots
    retry after another interval: [snapshot_every] groups and the
    failed image's payload in journal bytes, counted from its
    hand-off.  Until one succeeds, recovery replays from the last
    installed image, past the replay bound.  Every hand-off, forced or
    periodic, starts the next interval and sets the image size it waits
    for.
    @raise Wal_failed if the journal itself cannot be synced or its
    next segment cannot be opened. *)

val batch : t -> (unit -> 'a) -> 'a
(** [batch t f] runs [f] as one group commit: each group [f] commits is
    encoded with its own commit flag, as outside a batch, but the
    groups are written in one append, and fsynced under the policy,
    when [f] returns (or raises).  A snapshot hand-off, {!snapshot},
    {!close} and {!write_deferred} write them earlier.  Outside a
    batch every group is written when it commits.  Nested batches are
    one batch.

    A caller that answers requests must let no response leave before
    the group it acknowledges is written: [Server.step] runs its reads
    and dispatch inside a batch and sends responses only after it.
    @raise Wal_failed when the write or fsync fails. *)

val write_deferred : t -> unit
(** Write the groups a {!batch} has committed so far, now, as its end
    would: for a caller that must send a response before the batch
    ends.
    @raise Wal_failed when the write or fsync fails. *)

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
(** Bytes of written groups in the current segment.  The open group
    (until its [Op_end]) and, inside a {!batch}, the groups committed
    since the batch began are in memory, not counted. *)

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
      (** leftover [.tmp] files from an interrupted snapshot, deleted
          by the checkpoint *)
  checkpoint_failed : string option;
      (** [Some why] when the post-recovery checkpoint snapshot could
          not be written or could not delete what it supersedes.
          Recovery still succeeds when the tail was clean — nothing the
          image does not cover is deleted, so the old files stay
          authoritative — but fails with [Error _] when a truncation
          needed quarantining, since appending behind un-quarantined
          torn bytes would lose future groups. *)
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
    directory holds no recoverable state at all, or when the fresh
    segment cannot be created (a retry recovers). *)

val open_or_recover :
  ?consume:bool ->
  config ->
  (t * Database.t * Online.t * recovery_report option, string) result
(** {!recover} when [config.dir] already holds WAL files ([consume] is
    then ignored in favour of the journaled meta), else
    {!create_engine}, whose exceptions become [Error _]. *)

(** {1 Wire-format internals and the test seam, exposed for tests} *)

val writer_step : t -> string option
(** On a handle with a seam, where a periodic snapshot's steps wait for
    this or for {!snapshot} or {!close}: run the next step on the
    calling thread and name it (["wal-fsync"], ["write-tmp"],
    ["rename"], ["fsync-dir"], ["prune"]); [None] when no step is left.
    The next journaled operation settles a finished snapshot. *)

module Crc32 : sig
  val string : string -> int
  (** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a whole string;
      ["123456789"] hashes to [0xCBF43926]. *)

  val bytes : ?crc:int -> Bytes.t -> int -> int -> int
  (** [bytes ~crc b off len] continues a running checksum.  One C
      function, which the snapshot writer thread also uses.
      @raise Invalid_argument when the range is outside [b]. *)
end
