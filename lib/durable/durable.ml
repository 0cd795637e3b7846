(* Durable write-ahead log + snapshots for the online engine.

   Layout (all integers little-endian):

   segment [wal-<first-lsn 20 digits>.log]:
     "EWALSEG1" (8) | first_lsn u64 (8)      -- 16-byte header
     record*:
       payload_len u32 | lsn u64 | kind u8 | payload | crc u32
     where [kind]'s high bit (0x80) marks the last record of a
     committed group and [crc] covers lsn..payload.

   snapshot [snap-<lsn 20 digits>.img]:
     "EWALSNP2" (8) | lsn u64 (8) | payload_len u32 | payload | crc u32
     where [crc] covers the payload ("EWALSNP1" images, whose payload
     holds a value dictionary, are still read).  Written to a [.tmp] sibling,
     fsynced, renamed into place, then the directory is fsynced — a
     crash mid-write leaves only a [.tmp], never a half snapshot under
     the real name.

   Group atomicity: the journal sink encodes every record of one engine
   operation into an in-memory buffer and commits them when the
   operation's [Op_end] arrives, flagging the last record.  A committed
   group is written at once, or, inside a [batch], with the batch's
   other groups in one append when it ends.  Recovery applies whole
   committed groups only, so replayed state always sits on an operation
   boundary. *)

open Relational
open Entangled
open Coordination

(* ------------------------------ CRC32 ------------------------------ *)

module Crc32 = struct
  (* durable_io.c: the writer thread checksums snapshot images with the
     same function. *)
  external update : int -> Bytes.t -> int -> int -> int
    = "entangle_durable_crc32"
  [@@noalloc]

  let bytes ?(crc = 0) b off len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Durable.Crc32.bytes";
    update crc b off len

  let sub s off len = bytes (Bytes.unsafe_of_string s) off len
  let string s = sub s 0 (String.length s)
end

(* ------------------------- Binary encoding ------------------------- *)

let u32_max = 0xFFFFFFFF

(* A growable byte buffer the encoders write into in place.  Unlike a
   [Buffer.t], bytes already written can be patched: a record's length
   prefix, commit flag and checksum are set once its payload is in. *)
module Buf = struct
  type t = { mutable b : Bytes.t; mutable len : int }

  let create n = { b = Bytes.create n; len = 0 }

  let reserve w n =
    if w.len + n > Bytes.length w.b then begin
      let b = Bytes.create (max (w.len + n) (2 * Bytes.length w.b)) in
      Bytes.blit w.b 0 b 0 w.len;
      w.b <- b
    end

  let clear w = w.len <- 0
end

module Enc = struct
  let u8 (w : Buf.t) v =
    Buf.reserve w 1;
    Bytes.unsafe_set w.b w.len (Char.unsafe_chr (v land 0xff));
    w.len <- w.len + 1

  let u32 (w : Buf.t) v =
    if v < 0 || v > u32_max then invalid_arg "Durable.Enc.u32";
    Buf.reserve w 4;
    Bytes.set_int32_le w.b w.len (Int32.of_int v);
    w.len <- w.len + 4

  let i64 (w : Buf.t) v =
    Buf.reserve w 8;
    Bytes.set_int64_le w.b w.len v;
    w.len <- w.len + 8

  let int w v = i64 w (Int64.of_int v)

  let str (w : Buf.t) s =
    let n = String.length s in
    u32 w n;
    Buf.reserve w n;
    Bytes.blit_string s 0 w.b w.len n;
    w.len <- w.len + n

  let value w = function
    | Value.Int n ->
      u8 w 0;
      int w n
    | Value.Str s ->
      u8 w 1;
      str w s
    | Value.Bool v ->
      u8 w 2;
      u8 w (if v then 1 else 0)

  let values w vs =
    u32 w (List.length vs);
    List.iter (value w) vs

  let list w f xs =
    u32 w (List.length xs);
    List.iter (f w) xs
end

exception Decode_error of string

module Dec = struct
  type t = { s : string; mutable pos : int; limit : int }

  let make ?(pos = 0) ?limit s =
    let limit = Option.value ~default:(String.length s) limit in
    { s; pos; limit }

  let need d n =
    if d.pos + n > d.limit then raise (Decode_error "short payload")

  let u8 d =
    need d 1;
    let v = Char.code d.s.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    need d 4;
    let v = Int32.to_int (String.get_int32_le d.s d.pos) land u32_max in
    d.pos <- d.pos + 4;
    v

  let i64 d =
    need d 8;
    let v = String.get_int64_le d.s d.pos in
    d.pos <- d.pos + 8;
    v

  let int d =
    let v = i64 d in
    if Int64.of_int (Int64.to_int v) <> v then
      raise (Decode_error "int out of range");
    Int64.to_int v

  let str d =
    let n = u32 d in
    need d n;
    let s = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    s

  let value d =
    match u8 d with
    | 0 -> Value.Int (int d)
    | 1 -> Value.Str (str d)
    | 2 -> Value.Bool (u8 d <> 0)
    | _ -> raise (Decode_error "bad value tag")

  let list d f =
    let n = u32 d in
    if n > d.limit - d.pos then raise (Decode_error "bad list length");
    List.init n (fun _ -> f d)

  let at_end d = d.pos = d.limit
end

(* ------------------------------ Records ---------------------------- *)

(* Engine meta, shared by the [Meta] record and the snapshot header:
   four bytes, of which only the third (consume) still configures
   anything.  The first once named the storage backend (0 row, 1 a
   columnar mirror of the row store), the second a deferred-evaluation
   mode (0) and the fourth a selection criterion (0 largest, 1 first
   found).  The row store, evaluation on arrival and the largest
   selection are now the only ones: new files carry 0, 1 and 0 there,
   and a reader checks each byte's range as before, then ignores it.
   Replay never evaluates, so files with the old values recover the
   same state. *)
let encode_meta b ~consume =
  Enc.u8 b 0;
  Enc.u8 b 1;
  Enc.u8 b (Bool.to_int consume);
  Enc.u8 b 0

let decode_meta d =
  if Dec.u8 d > 1 then raise (Decode_error "bad backend");
  ignore (Dec.u8 d : int);
  let consume = Dec.u8 d <> 0 in
  if Dec.u8 d > 1 then raise (Decode_error "bad selection");
  consume

type record =
  | Meta of { consume : bool }
  | Submit of { id : int; src : string }
  | Reject of { id : int }
  | Retire of { ids : int list }
  | Consume of { deletions : (string * Value.t list) list }
  | Commit
      (* kind 5: an operation trailer older logs hold; decoded, never
         written *)
  | Insert of { rel : string; tuple : Value.t list }
  | Create_table of { name : string; attrs : string list }

let record_kind = function
  | Meta _ -> 0
  | Submit _ -> 1
  | Reject _ -> 2
  | Retire _ -> 3
  | Consume _ -> 4
  | Commit -> 5
  | Insert _ -> 6
  | Create_table _ -> 7

let encode_payload w = function
  | Meta { consume } -> encode_meta w ~consume
  | Submit { id; src } ->
    Enc.u32 w id;
    Enc.str w src
  | Reject { id } -> Enc.u32 w id
  | Retire { ids } -> Enc.list w Enc.u32 ids
  | Consume { deletions } ->
    Enc.list w
      (fun w (rel, tuple) ->
        Enc.str w rel;
        Enc.values w tuple)
      deletions
  | Commit -> ()
  | Insert { rel; tuple } ->
    Enc.str w rel;
    Enc.values w tuple
  | Create_table { name; attrs } ->
    Enc.str w name;
    Enc.list w Enc.str attrs

(* Append [r] to [w] as the record [lsn], with its checksum's four
   bytes reserved at the end: the checksum covers the flag byte, and
   whether the record ends its group is known only later.  Returns the
   record's offset in [w]. *)
let encode_record (w : Buf.t) ~lsn r =
  let at = w.len in
  Enc.u32 w 0;
  Enc.i64 w lsn;
  Enc.u8 w (record_kind r);
  encode_payload w r;
  Bytes.set_int32_le w.b at (Int32.of_int (w.len - at - 13));
  Enc.u32 w 0;
  at

(* Take the checksum of the record at [at], the last one in [w],
   flagging it first as the end of its group when [commit]. *)
let seal_record (w : Buf.t) at ~commit =
  if commit then
    Bytes.set_uint8 w.b (at + 12) (Bytes.get_uint8 w.b (at + 12) lor 0x80);
  Bytes.set_int32_le w.b (w.len - 4)
    (Int32.of_int (Crc32.bytes w.b (at + 4) (w.len - at - 8)))

let decode_record kind payload =
  let d = Dec.make payload in
  let r =
    match kind with
    | 0 -> Meta { consume = decode_meta d }
    | 1 ->
      let id = Dec.u32 d in
      Submit { id; src = Dec.str d }
    | 2 -> Reject { id = Dec.u32 d }
    | 3 -> Retire { ids = Dec.list d Dec.u32 }
    | 4 ->
      Consume
        {
          deletions =
            Dec.list d (fun d ->
                let rel = Dec.str d in
                (rel, Dec.list d Dec.value));
        }
    | 5 ->
      ignore (Dec.u8 d : int);
      ignore (Dec.u32 d : int);
      Commit
    | 6 ->
      let rel = Dec.str d in
      Insert { rel; tuple = Dec.list d Dec.value }
    | 7 ->
      let name = Dec.str d in
      Create_table { name; attrs = Dec.list d Dec.str }
    | _ -> raise (Decode_error "bad kind")
  in
  if not (Dec.at_end d) then raise (Decode_error "trailing payload bytes");
  r

(* ------------------------------ Files ------------------------------ *)

let segment_magic = "EWALSEG1"
let snapshot_magic = "EWALSNP2"
let snapshot_magic_v1 = "EWALSNP1"
let snapshot_header_len = 20
let segment_header_len = 16

(* Largest payload a well-formed record may carry; a length prefix
   beyond it is garbage, not a huge record. *)
let max_payload_len = 1 lsl 24

let segment_name lsn = Printf.sprintf "wal-%020Ld.log" lsn
let snapshot_name lsn = Printf.sprintf "snap-%020Ld.img" lsn

let parse_name ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length name in
  if n = pl + 20 + sl && String.sub name 0 pl = prefix
     && String.sub name (n - sl) sl = suffix
  then Int64.of_string_opt (String.sub name pl 20)
  else None

let segment_lsn = parse_name ~prefix:"wal-" ~suffix:".log"
let snapshot_lsn = parse_name ~prefix:"snap-" ~suffix:".img"
let wal_file n = segment_lsn n <> None || snapshot_lsn n <> None

let rec mkdir_p path =
  if path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let list_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare

(* ----------------------------- Metrics ----------------------------- *)

let h_append =
  Obs.Histogram.declare ~help:"WAL segment write, with its fsync"
    "wal.append_ns"
let h_fsync = Obs.Histogram.declare ~help:"WAL fsync" "wal.fsync_ns"
let c_records = Obs.Counter.declare ~help:"WAL records written" "wal.records"
let c_groups = Obs.Counter.declare ~help:"WAL groups committed" "wal.groups"
let c_fsyncs = Obs.Counter.declare ~help:"WAL fsyncs issued" "wal.fsyncs"
let c_snapshots = Obs.Counter.declare ~help:"snapshots written" "wal.snapshots"

let h_snapshot_encode =
  Obs.Histogram.declare
    ~help:"snapshot time on the request thread: encode and rotation"
    "wal.snapshot_encode_ns"

let h_snapshot_write =
  Obs.Histogram.declare
    ~help:"snapshot time on the writer: fsyncs, write, rename, prune"
    "wal.snapshot_write_ns"

(* Counted with metrics off too: a silent snapshot failure is what a
   health check looks for. *)
let c_snapshot_failures =
  Obs.Counter.declare ~always:true
    ~help:"snapshot writes that failed (journal retained)"
    "wal.snapshot_failures"

let c_truncations =
  Obs.Counter.declare ~help:"corrupt WAL tails truncated at recovery"
    "recovery.truncations"

let c_replayed =
  Obs.Counter.declare ~help:"WAL records replayed at recovery"
    "recovery.records_replayed"

let c_recoveries =
  Obs.Counter.declare ~help:"recoveries performed" "recovery.runs"

(* -------------------------- Configuration -------------------------- *)

type fsync_policy = Always | Every_n of int | Never

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every_n n -> Printf.sprintf "every-n:%d" n

let fsync_policy_of_string s =
  match s with
  | "always" -> Some Always
  | "never" -> Some Never
  | _ ->
    let prefix = "every-n:" in
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some n when n >= 1 -> Some (Every_n n)
      | _ -> None
    else None

(* A snapshot's blocking I/O, as steps.  The request thread encodes the
   image, where the state is consistent, and hands it off; the steps
   then run on a writer thread (durable_io.c), or on the calling thread
   (a forced snapshot, the recovery checkpoint, and tests one step at a
   time through [writer_step]).  Nothing is deleted before the image is
   renamed, the directory is fsynced and the WAL prefix it covers is
   durable, and the WAL stays authoritative until the request thread
   rotates, so a crash between any two steps recovers exactly.
   [Sync_wal] runs when the hand-off offset is beyond [synced]. *)
type step = Sync_wal | Write_tmp | Rename | Sync_dir | Prune

let step_name = function
  | Sync_wal -> "wal-fsync"
  | Write_tmp -> "write-tmp"
  | Rename -> "rename"
  | Sync_dir -> "fsync-dir"
  | Prune -> "prune"

(* durable_io.c numbers the steps in this order; [None] is a job done. *)
let steps = [| Some Sync_wal; Some Write_tmp; Some Rename; Some Sync_dir; Some Prune; None |]

type io_call =
  | Segment_create
  | Segment_header
  | Dir_sync
  | Append
  | Segment_sync
  | Step of step

type config = {
  dir : string;
  fsync : fsync_policy;
  snapshot_every : int;
  io : (io_call -> unit) option;
}

let config ?(fsync = Always) ?(snapshot_every = 512) ?io dir =
  { dir; fsync; snapshot_every; io }

(* The test seam, before a call that changes the WAL directory. *)
let seam cfg call = match cfg.io with None -> () | Some io -> io call

(* --------------------------- Live handle --------------------------- *)

(* A job's paths, bytes and progress, in C memory (durable_io.c). *)
type cjob

external job_create :
  string ->
  string ->
  string ->
  Bytes.t ->
  int ->
  int ->
  Unix.file_descr option ->
  string list option ->
  cjob = "entangle_durable_job_create_bytecode" "entangle_durable_job_create"

external job_step : cjob -> unit = "entangle_durable_job_step"
external job_fail : cjob -> Unix.error -> unit = "entangle_durable_job_fail"
external job_start : cjob -> bool = "entangle_durable_job_start"
external job_started : cjob -> bool = "entangle_durable_job_started" [@@noalloc]
external job_poll : cjob -> bool = "entangle_durable_job_poll"
external job_wait : cjob -> unit = "entangle_durable_job_wait"
external job_next : cjob -> int = "entangle_durable_job_next" [@@noalloc]
external job_failed : cjob -> int = "entangle_durable_job_failed" [@@noalloc]

let next_step j = steps.(job_next j)
external job_write_ns : cjob -> int = "entangle_durable_job_write_ns" [@@noalloc]
external job_raise : cjob -> unit = "entangle_durable_job_raise"

type job = {
  j_c : cjob;
  j_cfg : config;  (* its directory and seam *)
  j_lsn : int64;
  j_offset : int;  (* segment bytes the image covers *)
  mutable j_encode_ns : int;  (* the request thread's encode, set at hand-off *)
}

type t = {
  cfg : config;
  mutable fd : Unix.file_descr;  (* the current segment *)
  mutable seg_path : string;
  mutable next_lsn : int64;  (* of the open group's first record *)
  mutable offset : int;  (* bytes written to the current segment *)
  mutable synced : int;  (* prefix of [offset] known fsynced *)
  out : Buf.t;  (* records not yet written: committed groups, then the open group *)
  mutable committed : int;  (* prefix of [out] that ends a committed group *)
  mutable open_records : int;  (* records of the open group *)
  mutable last_record : int;  (* offset in [out] of the open group's last record *)
  mutable batching : bool;  (* inside [batch]: committed groups wait for its end *)
  mutable groups_since_sync : int;
  mutable groups_since_snapshot : int;
  mutable bytes_since_snapshot : int;  (* written since the last hand-off *)
  mutable image_bytes : int;  (* the last image's payload *)
  db : Database.t;
  engine : Online.t;
  mutable closed : bool;
  mutable failed : string option;  (* why the journal stopped taking writes *)
  mutable writer : job option;  (* at most one snapshot in flight *)
  image : Buf.t;  (* the last image's header and payload, reused *)
}

let dir t = t.cfg.dir
let current_segment t = t.seg_path
let wal_offset t = t.offset
let synced_offset t = t.synced
let last_lsn t = Int64.pred t.next_lsn

let do_fsync t =
  let t0 = Obs.now_ns_int () in
  seam t.cfg Segment_sync;
  Unix.fsync t.fd;
  t.synced <- t.offset;
  t.groups_since_sync <- 0;
  Obs.Counter.incr c_fsyncs;
  Obs.Histogram.observe_i h_fsync (Obs.now_ns_int () - t0)

let rec write_all fd b off n =
  if n > 0 then
    match Unix.single_write fd b off n with
    | k -> write_all fd b (off + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off n

(* A segment that cannot be created fails like [open_out] would, with
   [Sys_error]. *)
let open_segment cfg ~first_lsn =
  let path = Filename.concat cfg.dir (segment_name first_lsn) in
  let header = Bytes.create segment_header_len in
  Bytes.blit_string segment_magic 0 header 0 8;
  Bytes.set_int64_le header 8 first_lsn;
  let fail e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  let fd =
    try
      seam cfg Segment_create;
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) -> fail e
  in
  (try
     seam cfg Segment_header;
     write_all fd header 0 segment_header_len;
     seam cfg Dir_sync;
     fsync_dir cfg.dir
   with e ->
     Unix.close fd;
     match e with Unix.Unix_error (e, _, _) -> fail e | e -> raise e);
  (path, fd)

let handle ?(image_bytes = 0) cfg ~db ~engine ~first_lsn =
  let seg_path, fd = open_segment cfg ~first_lsn in
  {
    cfg;
    fd;
    seg_path;
    next_lsn = first_lsn;
    offset = segment_header_len;
    synced = segment_header_len;
    out = Buf.create 4096;
    committed = 0;
    open_records = 0;
    last_record = 0;
    batching = false;
    groups_since_sync = 0;
    groups_since_snapshot = 0;
    bytes_since_snapshot = 0;
    image_bytes;
    db;
    engine;
    closed = false;
    failed = None;
    writer = None;
    image = Buf.create 16384;
  }

(* Encode [r] into the open group, in place.  LSNs follow the committed
   ones, so the open group moves whole into a fresh segment when one is
   opened before it commits. *)
let buffer_record t r =
  if t.open_records > 0 then seal_record t.out t.last_record ~commit:false;
  t.last_record <-
    encode_record t.out ~lsn:(Int64.add t.next_lsn (Int64.of_int t.open_records)) r;
  t.open_records <- t.open_records + 1

exception Wal_failed of string

let io_error_to_string = function
  | Unix.Unix_error (err, fn, arg) ->
    Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(* Fail-stop.  An I/O error while appending, syncing or rotating the
   journal leaves the engine past what the WAL holds, and after a
   failed fsync the kernel may already have dropped the dirty pages, so
   a later fsync that succeeds proves nothing.  The handle therefore
   refuses every later write as well, drops what it had not written,
   and the caller must stop: a restart recovers exactly what the WAL
   holds. *)
let fail_stop t f =
  match t.failed with
  | Some why -> raise (Wal_failed why)
  | None -> (
    try f ()
    with (Unix.Unix_error _ | Sys_error _) as e ->
      let why = io_error_to_string e in
      t.failed <- Some why;
      Buf.clear t.out;
      t.committed <- 0;
      t.open_records <- 0;
      Obs.Flight_recorder.incident ("WAL write failed: " ^ why);
      raise (Wal_failed why))

(* Write the committed groups in one append, keeping the open group's
   records, then apply the fsync policy. *)
let write_groups t =
  let n = t.committed in
  if n > 0 then begin
    let t0 = Obs.now_ns_int () in
    seam t.cfg Append;
    write_all t.fd t.out.b 0 n;
    t.offset <- t.offset + n;
    t.bytes_since_snapshot <- t.bytes_since_snapshot + n;
    Bytes.blit t.out.b n t.out.b 0 (t.out.len - n);
    t.out.len <- t.out.len - n;
    t.last_record <- t.last_record - n;
    t.committed <- 0;
    (match t.cfg.fsync with
    | Always -> do_fsync t
    | Every_n k -> if t.groups_since_sync >= k then do_fsync t
    | Never -> t.synced <- max t.synced segment_header_len);
    Obs.Histogram.observe_i h_append (Obs.now_ns_int () - t0)
  end

(* Close the open group, flagging its last record, and write it unless
   a batch defers the write to its end. *)
let commit_group t =
  if t.open_records > 0 then begin
    seal_record t.out t.last_record ~commit:true;
    t.committed <- t.out.len;
    t.next_lsn <- Int64.add t.next_lsn (Int64.of_int t.open_records);
    Obs.Counter.add c_records t.open_records;
    Obs.Counter.incr c_groups;
    t.open_records <- 0;
    t.groups_since_sync <- t.groups_since_sync + 1;
    t.groups_since_snapshot <- t.groups_since_snapshot + 1;
    if not t.batching then write_groups t
  end

let write_deferred t = if t.committed > 0 then fail_stop t (fun () -> write_groups t)

let batch t f =
  if t.batching then f ()
  else begin
    t.batching <- true;
    match f () with
    | v ->
      t.batching <- false;
      write_deferred t;
      v
    | exception e ->
      (* Groups committed before the failure are still part of the
         engine's state. *)
      t.batching <- false;
      (try write_deferred t with Wal_failed _ -> ());
      raise e
  end

(* --------------------------- Snapshots ----------------------------- *)

(* A snapshot image into [w]: room for the file's header, then the
   payload: engine meta, id allocator, satisfied count, the tables in
   database order, each as its name, attributes, cardinal and live
   tuples in row order (its arity values each, inline), then the pool
   as (id, query source).  One pass over the store; the bytes are a
   function of the engine state and its row order, which recovery
   keeps by re-inserting the tuples in it. *)
let encode_snapshot (w : Buf.t) ~(db : Database.t) engine =
  Buf.clear w;
  Buf.reserve w snapshot_header_len;
  w.len <- snapshot_header_len;
  encode_meta w ~consume:(Online.consume engine);
  Enc.u32 w (Online.next_id engine);
  Enc.u32 w (Online.total_coordinated engine);
  Enc.list w
    (fun w r ->
      let schema = Relation.schema r in
      Enc.str w (Schema.name schema);
      Enc.list w Enc.str (Array.to_list (Schema.attributes schema));
      Enc.u32 w (Relation.cardinal r);
      Relation.iter
        (fun t ->
          for i = 0 to Array.length t - 1 do
            Enc.value w t.(i)
          done)
        r)
    (Database.relations db);
  Enc.list w
    (fun w (id, query) ->
      Enc.u32 w id;
      Enc.str w (Parser.query_to_string query))
    (Online.pending_entries engine)

type snapshot_state = {
  s_consume : bool;
  s_next_id : int;
  s_satisfied : int;
  s_tables : (string * string list * Value.t array list) list;
  s_pool : (int * string) list;
}

(* A version-2 payload, or a version-1 one: the same but for the store,
   a value dictionary then per-table tuples of references into it,
   each tuple prefixed by its arity. *)
let decode_snapshot ~version payload =
  let d = Dec.make payload in
  let consume = decode_meta d in
  let next_id = Dec.u32 d in
  let satisfied = Dec.u32 d in
  let tuple =
    if version = 2 then fun arity d -> Array.init arity (fun _ -> Dec.value d)
    else begin
      let dict = Array.of_list (Dec.list d Dec.value) in
      let deref d =
        let i = Dec.u32 d in
        if i >= Array.length dict then raise (Decode_error "bad value reference");
        dict.(i)
      in
      fun _ d ->
        let arity = Dec.u32 d in
        if arity > 4096 then raise (Decode_error "bad arity");
        Array.init arity (fun _ -> deref d)
    end
  in
  let tables =
    Dec.list d (fun d ->
        let name = Dec.str d in
        let attrs = Dec.list d Dec.str in
        let arity = List.length attrs in
        (name, attrs, Dec.list d (tuple arity)))
  in
  let pool =
    Dec.list d (fun d ->
        let id = Dec.u32 d in
        (id, Dec.str d))
  in
  if not (Dec.at_end d) then raise (Decode_error "trailing snapshot bytes");
  {
    s_consume = consume;
    s_next_id = next_id;
    s_satisfied = satisfied;
    s_tables = tables;
    s_pool = pool;
  }

(* The files of a directory holding [entries] that are superseded once
   it keeps only its newest two snapshots: the older snapshots, then
   every segment not needed to replay past the oldest kept one. *)
let superseded entries =
  let snaps =
    List.filter_map
      (fun n -> Option.map (fun l -> (l, n)) (snapshot_lsn n))
      entries
    |> List.sort (fun (a, _) (b, _) -> Int64.compare b a)
  in
  let kept = List.filteri (fun i _ -> i < 2) snaps in
  let old_snaps = List.filteri (fun i _ -> i >= 2) snaps in
  let horizon =
    match List.rev kept with (l, _) :: _ -> l | [] -> 0L
  in
  let segs =
    List.filter_map
      (fun n -> Option.map (fun l -> (l, n)) (segment_lsn n))
      entries
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  (* A segment's records end where the next segment starts; drop it only
     when everything it holds is at or below the snapshot horizon. *)
  let rec drop = function
    | (_, name) :: ((next_first, _) :: _ as rest)
      when Int64.compare next_first (Int64.add horizon 1L) <= 0 ->
      name :: drop rest
    | _ -> []
  in
  List.map snd old_snaps @ drop segs

(* ------------------------- Snapshot writer ------------------------- *)

(* The job writing the image [encode_snapshot] left in [w] as the
   snapshot at [lsn] into [cfg.dir]: the header is filled in here, on
   the caller's thread, the job copies the bytes, and its write step
   appends the payload's checksum, so the writer runs no OCaml code
   between its system calls.  [wal] is the segment to fsync first;
   [victims] the names to delete last. *)
let make_job cfg ~lsn (w : Buf.t) ?wal ?(offset = 0) ?victims () =
  Bytes.blit_string snapshot_magic 0 w.b 0 8;
  Bytes.set_int64_le w.b 8 lsn;
  Bytes.set_int32_le w.b 16 (Int32.of_int (w.len - snapshot_header_len));
  let path = Filename.concat cfg.dir (snapshot_name lsn) in
  {
    j_c =
      job_create cfg.dir (path ^ ".tmp") path w.b snapshot_header_len w.len wal
        (Option.map (List.map (Filename.concat cfg.dir)) victims);
    j_cfg = cfg;
    j_lsn = lsn;
    j_offset = offset;
    j_encode_ns = 0;
  }

(* Run the job's next step on the calling thread, after the seam: a
   [Unix_error] from the seam fails the step as its system call would. *)
let run_step j s =
  match seam j.j_cfg (Step s) with
  | () -> job_step j.j_c
  | exception Unix.Unix_error (e, _, _) -> job_fail j.j_c e

(* Run what is left of the job on the calling thread. *)
let rec run_job j =
  Option.iter (fun s -> run_step j s; run_job j) (next_step j.j_c)

(* How a finished job ends for its caller: [Error why] for a snapshot
   file that could not be written, counted and emitted like any
   snapshot failure — a daemon that silently stops snapshotting
   replays an ever-growing journal at the next restart.  A failed
   WAL-prefix fsync is raised. *)
let outcome j =
  match job_raise j.j_c with
  | () -> Ok ()
  | exception e when steps.(job_failed j.j_c) = Some Sync_wal -> raise e
  | exception e ->
    let why = io_error_to_string e in
    Obs.Counter.incr c_snapshot_failures;
    Obs.event
      ~args:(fun () ->
        [ ("lsn", Obs.Int (Int64.to_int j.j_lsn)); ("error", Obs.Str why) ])
      "durable.snapshot_failure";
    Error why

let writer_step t =
  match t.writer with
  | Some j when not (job_started j.j_c) ->
    Option.map (fun s -> run_step j s; step_name s) (next_step j.j_c)
  | _ -> None

(* Wait for the job to end: join its writer thread, or run what is left
   of it on the calling thread. *)
let await j = if job_started j.j_c then job_wait j.j_c else run_job j

(* Hand the current state's image to the writer.  The caller has just
   committed a group, so the image sits on a group boundary at
   [last_lsn]. *)
let hand_off t ~spawn =
  write_groups t;
  let t0 = Obs.now_ns_int () in
  let lsn = last_lsn t in
  encode_snapshot t.image ~db:t.db t.engine;
  (* Only this handle's writer changes the directory, so what the new
     image supersedes is known now. *)
  let victims = superseded (snapshot_name lsn :: list_dir t.cfg.dir) in
  let job =
    make_job t.cfg ~lsn t.image
      ?wal:
        (if t.synced < t.offset then Some t.fd else None)
      ~offset:t.offset ~victims ()
  in
  job.j_encode_ns <- Obs.now_ns_int () - t0;
  t.groups_since_snapshot <- 0;
  t.bytes_since_snapshot <- 0;
  t.image_bytes <- t.image.len - snapshot_header_len;
  t.writer <- Some job;
  (* A handle with a seam starts no thread.  Without a thread to spare,
     the write happens on the calling thread. *)
  if spawn && Option.is_none t.cfg.io && not (job_start job.j_c) then run_job job

let close_segment t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rotate t =
  (* Groups committed while the image was written belong in the old
     segment: under a syncing policy they must be durable before later
     fsyncs cover only the new one.  The open group, if any, moves to
     the new one. *)
  write_groups t;
  if t.cfg.fsync <> Never && t.synced < t.offset then do_fsync t;
  let path, fd = open_segment t.cfg ~first_lsn:t.next_lsn in
  close_segment t;
  t.seg_path <- path;
  t.fd <- fd;
  t.offset <- segment_header_len;
  t.synced <- segment_header_len;
  t.groups_since_sync <- 0

(* The request thread's half, once the job [j] has ended: on success
   rotate to a fresh segment (the writer has pruned); on a
   snapshot-file failure keep appending to the current segment, with
   nothing pruned.  A failed WAL-prefix fsync is raised for [fail_stop]
   to make sticky. *)
let settle t j ~rotate:do_rotate =
  t.writer <- None;
  let result = outcome j in
  t.synced <- max t.synced j.j_offset;
  let t0 = Obs.now_ns_int () in
  if result = Ok () && do_rotate then rotate t;
  Obs.Histogram.observe_i h_snapshot_encode
    (j.j_encode_ns + (Obs.now_ns_int () - t0));
  Obs.Histogram.observe_i h_snapshot_write (job_write_ns j.j_c);
  if result = Ok () then Obs.Counter.incr c_snapshots;
  result

(* Wait for the snapshot in flight, if any, and settle it. *)
let finish t =
  Option.map
    (fun j ->
      await j;
      settle t j ~rotate:true)
    t.writer

let poll t =
  match t.writer with
  (* A writer thread that has ended is joined here. *)
  | Some j when job_poll j.j_c ->
    ignore (settle t j ~rotate:true : (unit, string) result)
  | _ -> ()

let snapshot t =
  if t.closed then invalid_arg "Durable.snapshot: closed";
  fail_stop t @@ fun () ->
  (* At most one snapshot in flight: settle a periodic one first. *)
  ignore (finish t : (unit, string) result option);
  commit_group t;
  if Int64.compare t.next_lsn 1L <= 0 then Ok ()
  else begin
    hand_off t ~spawn:false;
    Option.get (finish t)
  end

(* Periodic snapshots wait for [snapshot_every] groups and for as many
   journal bytes since the last hand-off as that image's payload, so
   the cost of encoding an image is spread over a journal at least as
   large as it (Redis's rewrite at 100% growth).  At most one snapshot
   is in flight: one that comes due meanwhile waits, its counts kept,
   for the first commit after the writer has settled. *)
let maybe_snapshot t =
  if
    t.writer = None
    && t.cfg.snapshot_every > 0
    && t.groups_since_snapshot >= t.cfg.snapshot_every
    && t.bytes_since_snapshot + t.committed >= t.image_bytes
  then hand_off t ~spawn:true

(* ------------------------- Journal binding ------------------------- *)

let commit_group_and_snapshot t =
  fail_stop t @@ fun () ->
  poll t;
  commit_group t;
  maybe_snapshot t

let journal_sink t : Online.Journal.sink = function
  | Online.Journal.Submitted { id; query } ->
    buffer_record t (Submit { id; src = Parser.query_to_string query })
  | Online.Journal.Rejected { id } -> buffer_record t (Reject { id })
  | Online.Journal.Retired { ids } -> buffer_record t (Retire { ids })
  | Online.Journal.Consumed { deletions } ->
    buffer_record t
      (Consume
         {
           deletions =
             List.map (fun (rel, tup) -> (rel, Array.to_list tup)) deletions;
         })
  | Online.Journal.Op_end ->
    (* The commit bit on the group's last record marks where it ends. *)
    if t.open_records > 0 then commit_group_and_snapshot t

let journal_insert t rel tuple =
  buffer_record t (Insert { rel; tuple });
  commit_group_and_snapshot t

let journal_create_table t name attrs =
  buffer_record t (Create_table { name; attrs });
  commit_group_and_snapshot t

let attach t = Online.set_journal t.engine (Some (journal_sink t))

let close t =
  if not t.closed then begin
    t.closed <- true;
    Online.set_journal t.engine None;
    Fun.protect ~finally:(fun () -> close_segment t) @@ fun () ->
    (* The writer may still be syncing the segment: wait for it before
       the descriptor closes. *)
    let inflight = t.writer in
    Option.iter await inflight;
    (* A failed handle has nothing left it may write. *)
    if t.failed = None then
      fail_stop t (fun () ->
          Option.iter
            (fun j -> ignore (settle t j ~rotate:false : (unit, string) result))
            inflight;
          commit_group t;
          write_groups t;
          if t.cfg.fsync <> Never then do_fsync t)
  end

let has_wal_files dir =
  Sys.file_exists dir && List.exists wal_file (list_dir dir)

let create_engine ?(consume = false) cfg =
  mkdir_p cfg.dir;
  if has_wal_files cfg.dir then
    invalid_arg
      (Printf.sprintf
         "Durable.create_engine: %s already holds a WAL (use recover)" cfg.dir);
  let db = Database.create () in
  let engine = Online.create ~consume db in
  let t = handle cfg ~db ~engine ~first_lsn:1L in
  buffer_record t (Meta { consume });
  commit_group t;
  if t.cfg.fsync = Never then do_fsync t;  (* the meta record must survive *)
  attach t;
  (t, db, engine)

(* ----------------------------- Recovery ---------------------------- *)

type corruption =
  | Short_record
  | Bad_length
  | Bad_crc
  | Bad_lsn
  | Bad_kind
  | Bad_header
  | Bad_payload
  | Uncommitted_group

let corruption_to_string = function
  | Short_record -> "short record"
  | Bad_length -> "garbage length prefix"
  | Bad_crc -> "checksum mismatch"
  | Bad_lsn -> "LSN chain broken"
  | Bad_kind -> "unknown record kind"
  | Bad_header -> "bad segment header"
  | Bad_payload -> "undecodable payload"
  | Uncommitted_group -> "trailing uncommitted group"

type truncation = {
  t_segment : string;
  valid_bytes : int;
  dropped_bytes : int;
  reason : corruption;
}

type recovery_report = {
  snapshot_loaded : (string * int64) option;
  snapshots_skipped : (string * string) list;
  segments_scanned : int;
  records_replayed : int;
  groups_replayed : int;
  recovered_lsn : int64;
  truncation : truncation option;
  segments_dropped : string list;
  tmp_cleaned : string list;
  checkpoint_failed : string option;
}

let pp_report ppf r =
  let open Format in
  (match r.snapshot_loaded with
  | Some (file, lsn) -> fprintf ppf "snapshot: %s (lsn %Ld)@." file lsn
  | None -> fprintf ppf "snapshot: none@.");
  List.iter
    (fun (file, why) -> fprintf ppf "snapshot skipped: %s (%s)@." file why)
    r.snapshots_skipped;
  fprintf ppf "segments scanned: %d@." r.segments_scanned;
  fprintf ppf "records replayed: %d (%d committed groups)@."
    r.records_replayed r.groups_replayed;
  fprintf ppf "recovered lsn: %Ld@." r.recovered_lsn;
  (match r.truncation with
  | None -> fprintf ppf "tail: clean@."
  | Some tr ->
    fprintf ppf "tail truncated: %s at byte %d (%d bytes dropped, %s)@."
      (Filename.basename tr.t_segment)
      tr.valid_bytes tr.dropped_bytes
      (corruption_to_string tr.reason));
  List.iter
    (fun s -> fprintf ppf "segment dropped: %s@." (Filename.basename s))
    r.segments_dropped;
  List.iter
    (fun s -> fprintf ppf "stale tmp removed: %s@." (Filename.basename s))
    r.tmp_cleaned;
  match r.checkpoint_failed with
  | None -> ()
  | Some why ->
    fprintf ppf "checkpoint snapshot failed: %s (journal retained)@." why

(* Scan one segment, calling [apply] for each complete committed group
   as [(lsn, record) list].  Returns [Ok ()] on a clean end-of-file or
   [Error (corruption, valid_bytes)] with the offset of the last good
   group boundary. *)
let scan_segment ~first_lsn ~expected_lsn ~apply data =
  let len = String.length data in
  if
    len < segment_header_len
    || String.sub data 0 8 <> segment_magic
    || String.get_int64_le data 8 <> first_lsn
  then Error (Bad_header, 0)
  else begin
    let pos = ref segment_header_len in
    let group_start = ref segment_header_len in
    let group = ref [] in
    let result = ref (Ok ()) in
    let stop reason = result := Error (reason, !group_start) in
    let continue = ref true in
    while !continue do
      if !pos = len then begin
        if !group <> [] then stop Uncommitted_group;
        continue := false
      end
      else if len - !pos < 17 then begin
        stop Short_record;
        continue := false
      end
      else begin
        let payload_len =
          Int32.to_int (String.get_int32_le data !pos) land u32_max
        in
        if payload_len > max_payload_len then begin
          stop Bad_length;
          continue := false
        end
        else if len - !pos - 17 < payload_len then begin
          stop Short_record;
          continue := false
        end
        else begin
          let body_off = !pos + 4 in
          let body_len = 9 + payload_len in
          let stored_crc =
            Int32.to_int (String.get_int32_le data (body_off + body_len))
            land u32_max
          in
          if Crc32.sub data body_off body_len <> stored_crc then begin
            stop Bad_crc;
            continue := false
          end
          else begin
            let lsn = String.get_int64_le data body_off in
            let flag = Char.code data.[body_off + 8] in
            let kind = flag land 0x7f in
            let committed = flag land 0x80 <> 0 in
            if lsn <> !expected_lsn then begin
              stop Bad_lsn;
              continue := false
            end
            else begin
              match
                decode_record kind (String.sub data (body_off + 9) payload_len)
              with
              | exception Decode_error msg ->
                stop (if msg = "bad kind" then Bad_kind else Bad_payload);
                continue := false
              | record ->
                expected_lsn := Int64.succ lsn;
                group := (lsn, record) :: !group;
                pos := !pos + 4 + body_len + 4;
                if committed then begin
                  (match apply (List.rev !group) with
                  | Ok () ->
                    group := [];
                    group_start := !pos
                  | Error reason ->
                    stop reason;
                    continue := false)
                end
            end
          end
        end
      end
    done;
    !result
  end

let load_snapshot path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | data ->
    let len = String.length data in
    let version () =
      match String.sub data 0 8 with
      | m when m = snapshot_magic -> Some 2
      | m when m = snapshot_magic_v1 -> Some 1
      | _ -> None
    in
    if len < 24 then Error "too short"
    else
      match version () with
      | None -> Error "bad magic"
      | Some version ->
        let lsn = String.get_int64_le data 8 in
        let payload_len =
          Int32.to_int (String.get_int32_le data 16) land u32_max
        in
        if payload_len <> len - 24 then Error "bad length"
        else begin
          let stored_crc =
            Int32.to_int (String.get_int32_le data (len - 4)) land u32_max
          in
          if Crc32.sub data 20 payload_len <> stored_crc then
            Error "checksum mismatch"
          else
            match decode_snapshot ~version (String.sub data 20 payload_len) with
            | exception Decode_error msg -> Error ("undecodable: " ^ msg)
            | state -> Ok (lsn, payload_len, state)
        end

let recover cfg =
  if not (Sys.file_exists cfg.dir) then
    Result.Error (Printf.sprintf "%s: no such directory" cfg.dir)
  else begin
    Obs.Counter.incr c_recoveries;
    let entries = list_dir cfg.dir in
    (* An interrupted snapshot leaves a .tmp that was never renamed —
       it is garbage by construction. *)
    let tmps = List.filter (fun n -> Filename.check_suffix n ".tmp") entries in
    let snaps =
      List.filter_map
        (fun n -> Option.map (fun l -> (l, n)) (snapshot_lsn n))
        entries
      |> List.sort (fun (a, _) (b, _) -> Int64.compare b a)
    in
    let segments =
      List.filter_map
        (fun n -> Option.map (fun l -> (l, n)) (segment_lsn n))
        entries
      |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
    in
    let fresh_engine consume =
      let db = Database.create () in
      (db, Online.create ~consume db)
    in
    (* A checksummed snapshot can still fail to restore: a pool query
       that does not parse, a repeated id or table, a tuple of the wrong
       arity.  Restoring into a fresh store and engine turns that into
       a reason to skip it, like any other corrupt snapshot. *)
    let restore (s : snapshot_state) =
      let db, engine = fresh_engine s.s_consume in
      match
        List.iter
          (fun (name, attrs, tuples) ->
            let r = Database.create_table' db name attrs in
            List.iter (fun tup -> ignore (Relation.insert r tup)) tuples)
          s.s_tables;
        List.iter
          (fun (id, src) ->
            Online.restore_submit engine ~id (Parser.parse_query src))
          s.s_pool;
        Online.restore_counters engine ~satisfied:s.s_satisfied
          ~next_id:s.s_next_id
      with
      | () -> Ok (db, engine, s.s_consume)
      | exception
          (( Parser.Syntax_error _ | Invalid_argument _ | Not_found
           | Failure _ ) as e) ->
        Error ("unrestorable: " ^ Printexc.to_string e)
    in
    (* Newest snapshot that validates and restores wins; every newer one
       that failed is reported. *)
    let rec pick_snapshot skipped = function
      | [] -> (None, List.rev skipped)
      | (lsn, name) :: rest -> (
        match
          Result.bind (load_snapshot (Filename.concat cfg.dir name))
            (fun (stored_lsn, size, s) ->
              if stored_lsn <> lsn then Error "name/LSN mismatch"
              else Result.map (fun r -> (size, r)) (restore s))
        with
        | Ok (size, restored) ->
          (Some (name, lsn, size, restored), List.rev skipped)
        | Error why -> pick_snapshot ((name, why) :: skipped) rest)
    in
    let snapshot_pick, snapshots_skipped = pick_snapshot [] snaps in
    let snap_lsn =
      match snapshot_pick with Some (_, lsn, _, _) -> lsn | None -> 0L
    in
    let state = ref (Option.map (fun (_, _, _, r) -> r) snapshot_pick) in
    let ensure_engine consume =
      match !state with
      | Some (db, engine, stored) ->
        if stored <> consume then Error Bad_payload else Ok (db, engine)
      | None ->
        let db, engine = fresh_engine consume in
        state := Some (db, engine, consume);
        Ok (db, engine)
    in
    let records_replayed = ref 0 in
    let groups_replayed = ref 0 in
    let last_applied = ref snap_lsn in
    let apply_record = function
      | Meta { consume } -> Result.map (fun _ -> ()) (ensure_engine consume)
      | r -> (
        match !state with
        | None ->
          (* Effects before any Meta record: the WAL head is gone. *)
          Error Bad_payload
        | Some (db, engine, _) -> (
          try
            (match r with
            | Meta _ -> assert false
            | Submit { id; src } ->
              Online.restore_submit engine ~id (Parser.parse_query src)
            | Reject { id } -> Online.restore_evict engine id
            | Retire { ids } -> Online.restore_retire engine ids
            | Consume { deletions } ->
              List.iter
                (fun (rel, tuple) ->
                  match Database.relation_opt db rel with
                  | Some r ->
                    ignore (Relation.delete r (Array.of_list tuple))
                  | None -> ())
                deletions
            | Commit -> ()
            | Insert { rel; tuple } -> Database.insert db rel tuple
            | Create_table { name; attrs } ->
              ignore (Database.create_table' db name attrs));
            Ok ()
          with
          (* Only the exception families a malformed-but-checksummed
             payload can legitimately raise: parse errors, restore_*
             precondition violations (duplicate/unknown ids), and
             decoder [Failure]s.  Anything else — Out_of_memory,
             Stack_overflow, Assert_failure — is not evidence of a bad
             record and must not be laundered into [Bad_payload]
             truncation; re-raise it. *)
          | Parser.Syntax_error _ | Invalid_argument _ | Not_found
          | Failure _ ->
            Error Bad_payload))
    in
    let apply_group group =
      (* Snapshots land on group boundaries, so a group is either fully
         covered by the snapshot or fully beyond it. *)
      match group with
      | (lsn, _) :: _ when Int64.compare lsn snap_lsn <= 0 -> Ok ()
      | _ ->
        let rec go = function
          | [] ->
            groups_replayed := !groups_replayed + 1;
            (match List.rev group with
            | (last, _) :: _ -> last_applied := last
            | [] -> ());
            Ok ()
          | (_, r) :: rest -> (
            match apply_record r with
            | Ok () ->
              records_replayed := !records_replayed + 1;
              go rest
            | Error e -> Error e)
        in
        go group
    in
    let truncation = ref None in
    let segments_dropped = ref [] in
    let expected_lsn = ref (Int64.add snap_lsn 1L) in
    let segments_scanned = ref 0 in
    let rec walk = function
      | [] -> ()
      | (first_lsn, name) :: rest ->
        let path = Filename.concat cfg.dir name in
        if !truncation <> None then segments_dropped := path :: !segments_dropped
        else begin
          (* A segment starting at or below the snapshot horizon replays
             only its groups beyond it.  It is history, and its
             corruption (if any) irrelevant, when the next segment
             starts at or below the horizon too.  Otherwise it may run
             past the horizon — the live handle rotates only once the
             writer has installed the image — and a fault in it loses
             groups like a fault anywhere else. *)
          let covered =
            Int64.compare first_lsn snap_lsn <= 0
            && Int64.compare !expected_lsn (Int64.add snap_lsn 1L) = 0
          in
          let history =
            covered
            &&
            match rest with
            | (next, _) :: _ -> Int64.compare next (Int64.add snap_lsn 1L) <= 0
            | [] -> false
          in
          let start_lsn =
            if covered then ref first_lsn else expected_lsn
          in
          (* A segment must start exactly where the previous one ended
             (or anywhere at/below the snapshot horizon). *)
          if (not covered) && first_lsn <> !expected_lsn then begin
            truncation :=
              Some
                {
                  t_segment = path;
                  valid_bytes = 0;
                  dropped_bytes =
                    (try (Unix.stat path).Unix.st_size
                     with Unix.Unix_error _ -> 0);
                  reason = Bad_lsn;
                }
          end
          else begin
            incr segments_scanned;
            match read_file path with
            | exception Sys_error _ ->
              if not history then
                truncation :=
                  Some
                    {
                      t_segment = path;
                      valid_bytes = 0;
                      dropped_bytes = 0;
                      reason = Bad_header;
                    }
            | data -> (
              match
                scan_segment ~first_lsn ~expected_lsn:start_lsn
                  ~apply:apply_group data
              with
              | Ok () ->
                if Int64.compare !start_lsn !expected_lsn > 0 then
                  expected_lsn := !start_lsn
              | Error (reason, valid_bytes) ->
                if not history then
                  truncation :=
                    Some
                      {
                        t_segment = path;
                        valid_bytes;
                        dropped_bytes = String.length data - valid_bytes;
                        reason;
                      })
          end
        end;
        walk rest
    in
    walk segments;
    match !state with
    | None ->
      Result.Error
        (Printf.sprintf "%s: no valid snapshot or WAL records%s" cfg.dir
           (match !truncation with
           | Some tr ->
             Printf.sprintf " (%s in %s)"
               (corruption_to_string tr.reason)
               (Filename.basename tr.t_segment)
           | None -> ""))
    | Some (db, engine, _) ->
      (match !truncation with
      | None -> ()
      | Some tr ->
        Obs.event
          ~args:(fun () ->
            [
              ("segment", Obs.Str (Filename.basename tr.t_segment));
              ("reason", Obs.Str (corruption_to_string tr.reason));
              ("dropped_bytes", Obs.Int tr.dropped_bytes);
            ])
          "durable.truncation";
        Obs.Flight_recorder.incident
          (Printf.sprintf "wal corruption: %s in %s"
             (corruption_to_string tr.reason)
             (Filename.basename tr.t_segment));
        Obs.Counter.incr c_truncations);
      Obs.Counter.add c_replayed !records_replayed;
      (* Recovery checkpoint: make the recovered state durable in a
         fresh snapshot, then delete every other file the scan saw,
         whatever its LSN (torn bytes whole-segment), and open a fresh
         segment.  Nothing is patched in place, so a crash during this
         checkpoint recovers again from the same inputs. *)
      let lsn = !last_applied in
      let image = snapshot_name lsn in
      let w = Buf.create 16384 in
      encode_snapshot w ~db engine;
      let checkpoint =
        let job =
          make_job cfg ~lsn w
            ~victims:
              (List.filter
                 (fun n ->
                   n <> image && n <> image ^ ".tmp"
                   && (List.mem n tmps || wal_file n))
                 entries)
            ()
        in
        run_job job;
        outcome job
      in
      (* Segments are dropped only after a truncation. *)
      (match (checkpoint, !truncation) with
      | Error why, Some _ ->
        (* The checkpoint could not quarantine the torn/dropped bytes.
           Appending a fresh segment anyway would put new committed
           groups behind bytes the NEXT recovery truncates away, so a
           later crash would silently lose them.  Refuse. *)
        Result.Error
          (Printf.sprintf
             "%s: recovery needs a checkpoint to quarantine a corrupt \
              tail, but the snapshot write failed: %s"
             cfg.dir why)
      | (Ok _ | Error _), _ ->
        (* A failed (but tolerable — clean tail) checkpoint deleted
           nothing its image does not cover: the old snapshot +
           segments stay a durable copy of the replayed prefix.  So a
           segment that cannot be created is an [Error] a retry
           recovers from, the image alone after a checkpoint. *)
        (* The next periodic hand-off waits for a journal as large as
           the image recovery leaves authoritative. *)
        let image_bytes =
          match (checkpoint, snapshot_pick) with
          | Ok (), _ -> w.len - snapshot_header_len
          | Error _, Some (_, _, size, _) -> size
          | Error _, None -> 0
        in
        match
          handle ~image_bytes cfg ~db ~engine ~first_lsn:(Int64.add lsn 1L)
        with
        | exception Sys_error why -> Result.Error why
        | t ->
          attach t;
          let report =
            {
              snapshot_loaded =
                Option.map (fun (n, l, _, _) -> (n, l)) snapshot_pick;
              snapshots_skipped;
              segments_scanned = !segments_scanned;
              records_replayed = !records_replayed;
              groups_replayed = !groups_replayed;
              recovered_lsn = lsn;
              truncation = !truncation;
              segments_dropped = List.rev !segments_dropped;
              tmp_cleaned = (if checkpoint = Ok () then tmps else []);
              checkpoint_failed =
                (match checkpoint with Ok _ -> None | Error why -> Some why);
            }
          in
          Result.Ok (t, db, engine, report))
  end

let open_or_recover ?consume cfg =
  if has_wal_files cfg.dir then
    Result.map
      (fun (t, db, engine, report) -> (t, db, engine, Some report))
      (recover cfg)
  else
    match create_engine ?consume cfg with
    | t, db, engine -> Result.Ok (t, db, engine, None)
    | exception (Invalid_argument msg | Sys_error msg) -> Result.Error msg
