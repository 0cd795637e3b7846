(* Durable write-ahead log + snapshots for the online engine.

   Layout (all integers little-endian):

   segment [wal-<first-lsn 20 digits>.log]:
     "EWALSEG1" (8) | first_lsn u64 (8)      -- 16-byte header
     record*:
       payload_len u32 | lsn u64 | kind u8 | payload | crc u32
     where [kind]'s high bit (0x80) marks the last record of a
     committed group and [crc] covers lsn..payload.

   snapshot [snap-<lsn 20 digits>.img]:
     "EWALSNP1" (8) | lsn u64 (8) | payload_len u32 | payload | crc u32
     where [crc] covers the payload.  Written to a [.tmp] sibling,
     fsynced, renamed into place, then the directory is fsynced — a
     crash mid-write leaves only a [.tmp], never a half snapshot under
     the real name.

   Group atomicity: the journal sink buffers every record of one engine
   operation in memory and writes them as a single append when the
   operation's [Op_end] arrives, flagging the last record.  Recovery
   applies whole committed groups only, so replayed state always sits
   on an operation boundary. *)

open Relational
open Entangled
open Coordination

(* ------------------------------ CRC32 ------------------------------ *)

module Crc32 = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
             else c := !c lsr 1
           done;
           !c))

  let bytes ?(crc = 0) b off len =
    let t = Lazy.force table in
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = off to off + len - 1 do
      c := t.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF land 0xFFFFFFFF

  let string s = bytes (Bytes.unsafe_of_string s) 0 (String.length s)

  let sub s off len = bytes (Bytes.unsafe_of_string s) off len
end

(* ------------------------- Binary encoding ------------------------- *)

let u32_max = 0xFFFFFFFF

module Enc = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    if v < 0 || v > u32_max then invalid_arg "Durable.Enc.u32";
    Buffer.add_int32_le b (Int32.of_int v)

  let i64 b v = Buffer.add_int64_le b v
  let int b v = i64 b (Int64.of_int v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let value b = function
    | Value.Int n ->
      u8 b 0;
      int b n
    | Value.Str s ->
      u8 b 1;
      str b s
    | Value.Bool v ->
      u8 b 2;
      u8 b (if v then 1 else 0)

  let values b vs =
    u32 b (List.length vs);
    List.iter (value b) vs

  let list b f xs =
    u32 b (List.length xs);
    List.iter (f b) xs
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
  | Commit of { op : int; fired : int }
  | Insert of { rel : string; tuple : Value.t list }
  | Create_table of { name : string; attrs : string list }

let encode_record r =
  let b = Buffer.create 64 in
  let kind =
    match r with
    | Meta { consume } ->
      encode_meta b ~consume;
      0
    | Submit { id; src } ->
      Enc.u32 b id;
      Enc.str b src;
      1
    | Reject { id } ->
      Enc.u32 b id;
      2
    | Retire { ids } ->
      Enc.list b Enc.u32 ids;
      3
    | Consume { deletions } ->
      Enc.list b
        (fun b (rel, tuple) ->
          Enc.str b rel;
          Enc.values b tuple)
        deletions;
      4
    | Commit { op; fired } ->
      Enc.u8 b op;
      Enc.u32 b fired;
      5
    | Insert { rel; tuple } ->
      Enc.str b rel;
      Enc.values b tuple;
      6
    | Create_table { name; attrs } ->
      Enc.str b name;
      Enc.list b Enc.str attrs;
      7
  in
  (kind, Buffer.contents b)

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
      let op = Dec.u8 d in
      Commit { op; fired = Dec.u32 d }
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
let snapshot_magic = "EWALSNP1"
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

let h_append = lazy (Obs.Histogram.make ~help:"WAL group append" "wal.append_ns")
let h_fsync = lazy (Obs.Histogram.make ~help:"WAL fsync" "wal.fsync_ns")
let c_records = lazy (Obs.Counter.make ~help:"WAL records written" "wal.records")
let c_groups = lazy (Obs.Counter.make ~help:"WAL groups committed" "wal.groups")
let c_fsyncs = lazy (Obs.Counter.make ~help:"WAL fsyncs issued" "wal.fsyncs")
let c_snapshots = lazy (Obs.Counter.make ~help:"snapshots written" "wal.snapshots")

let c_snapshot_failures =
  lazy
    (Obs.Counter.make ~help:"snapshot writes that failed (journal retained)"
       "wal.snapshot_failures")

let c_truncations =
  lazy
    (Obs.Counter.make ~help:"corrupt WAL tails truncated at recovery"
       "recovery.truncations")

let c_replayed =
  lazy
    (Obs.Counter.make ~help:"WAL records replayed at recovery"
       "recovery.records_replayed")

let c_recoveries =
  lazy (Obs.Counter.make ~help:"recoveries performed" "recovery.runs")

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

type config = { dir : string; fsync : fsync_policy; snapshot_every : int }

let config ?(fsync = Always) ?(snapshot_every = 512) dir =
  { dir; fsync; snapshot_every }

(* --------------------------- Live handle --------------------------- *)

type t = {
  cfg : config;
  mutable oc : out_channel;
  mutable seg_path : string;
  mutable next_lsn : int64;
  mutable offset : int;  (* bytes written to the current segment *)
  mutable synced : int;  (* prefix of [offset] known fsynced *)
  mutable group : (int * string) list;  (* buffered records, newest first *)
  mutable groups_since_sync : int;
  mutable groups_since_snapshot : int;
  db : Database.t;
  engine : Online.t;
  mutable closed : bool;
  mutable failed : string option;  (* why the journal stopped taking writes *)
}

let dir t = t.cfg.dir
let current_segment t = t.seg_path
let wal_offset t = t.offset
let synced_offset t = t.synced
let last_lsn t = Int64.pred t.next_lsn

let do_fsync t =
  let t0 = if Obs.metrics_on () then Obs.now_ns () else 0L in
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  t.synced <- t.offset;
  t.groups_since_sync <- 0;
  if Obs.metrics_on () then begin
    Obs.Counter.incr (Lazy.force c_fsyncs);
    Obs.Histogram.observe (Lazy.force h_fsync) (Int64.sub (Obs.now_ns ()) t0)
  end

let open_segment ~dir ~first_lsn =
  let path = Filename.concat dir (segment_name first_lsn) in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  let b = Buffer.create segment_header_len in
  Buffer.add_string b segment_magic;
  Buffer.add_int64_le b first_lsn;
  Buffer.output_buffer oc b;
  flush oc;
  fsync_dir dir;
  (path, oc)

let buffer_record t r = t.group <- (encode_record r) :: t.group

exception Wal_failed of string

let io_error_to_string = function
  | Unix.Unix_error (err, fn, arg) ->
    Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(* Test-only fault injection for the journal: when set, [commit_group]
   raises the given exception in place of its write, as an EIO or
   ENOSPC from the log device would. *)
let journal_fault : exn option ref = ref None
let inject_journal_failure e = journal_fault := e

(* Fail-stop.  An I/O error while appending, syncing or rotating the
   journal leaves the engine past what the WAL holds, and after a
   failed fsync the kernel may already have dropped the dirty pages, so
   a later fsync that succeeds proves nothing.  The handle therefore
   refuses every later write as well, and the caller must stop: a
   restart recovers exactly what the WAL holds. *)
let fail_stop t f =
  match t.failed with
  | Some why -> raise (Wal_failed why)
  | None -> (
    try f ()
    with (Unix.Unix_error _ | Sys_error _) as e ->
      let why = io_error_to_string e in
      t.failed <- Some why;
      Obs.Flight_recorder.incident ("WAL write failed: " ^ why);
      raise (Wal_failed why))

(* Append the buffered group as one write, flagging its last record,
   then apply the fsync policy. *)
let commit_group t =
  match t.group with
  | [] -> ()
  | recs ->
    let recs = List.rev recs in
    let n = List.length recs in
    let t0 = if Obs.metrics_on () then Obs.now_ns () else 0L in
    let b = Buffer.create 256 in
    List.iteri
      (fun i (kind, payload) ->
        let flag = if i = n - 1 then kind lor 0x80 else kind in
        let lsn = t.next_lsn in
        t.next_lsn <- Int64.succ t.next_lsn;
        Enc.u32 b (String.length payload);
        let body = Buffer.create (9 + String.length payload) in
        Enc.i64 body lsn;
        Enc.u8 body flag;
        Buffer.add_string body payload;
        let body = Buffer.contents body in
        Buffer.add_string b body;
        Enc.u32 b (Crc32.string body))
      recs;
    t.group <- [];
    (match !journal_fault with Some e -> raise e | None -> ());
    Buffer.output_buffer t.oc b;
    flush t.oc;
    t.offset <- t.offset + Buffer.length b;
    t.groups_since_sync <- t.groups_since_sync + 1;
    t.groups_since_snapshot <- t.groups_since_snapshot + 1;
    (match t.cfg.fsync with
    | Always -> do_fsync t
    | Every_n k -> if t.groups_since_sync >= k then do_fsync t
    | Never -> t.synced <- max t.synced segment_header_len);
    if Obs.metrics_on () then begin
      Obs.Counter.add (Lazy.force c_records) n;
      Obs.Counter.incr (Lazy.force c_groups);
      Obs.Histogram.observe (Lazy.force h_append)
        (Int64.sub (Obs.now_ns ()) t0)
    end

(* --------------------------- Snapshots ----------------------------- *)

(* Snapshot payload: engine meta, id allocator, satisfied count, then
   the store as a snapshot-local value dictionary plus per-table tuples
   of dictionary references, then the pool as (id, query source).  The
   dictionary makes tuples compact. *)
let encode_snapshot ~(db : Database.t) engine =
  let b = Buffer.create 4096 in
  encode_meta b ~consume:(Online.consume engine);
  Enc.u32 b (Online.next_id engine);
  Enc.u32 b (Online.total_coordinated engine);
  let dict = Hashtbl.create 256 in
  let dict_order = ref [] in
  let intern v =
    match Hashtbl.find_opt dict v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length dict in
      Hashtbl.add dict v i;
      dict_order := v :: !dict_order;
      i
  in
  let tables =
    List.map
      (fun r ->
        let schema = Relation.schema r in
        let tuples =
          List.sort Tuple.compare (Relation.to_list r)
          |> List.map (fun tuple -> Array.map intern tuple)
        in
        (Schema.name schema, Array.to_list (Schema.attributes schema), tuples))
      (Database.relations db)
  in
  Enc.list b Enc.value (List.rev !dict_order);
  Enc.list b
    (fun b (name, attrs, tuples) ->
      Enc.str b name;
      Enc.list b Enc.str attrs;
      Enc.list b
        (fun b refs ->
          Enc.u32 b (Array.length refs);
          Array.iter (Enc.u32 b) refs)
        tuples)
    tables;
  Enc.list b
    (fun b (id, query) ->
      Enc.u32 b id;
      Enc.str b (Parser.query_to_string query))
    (Online.pending_entries engine);
  Buffer.contents b

type snapshot_state = {
  s_consume : bool;
  s_next_id : int;
  s_satisfied : int;
  s_tables : (string * string list * Value.t array list) list;
  s_pool : (int * string) list;
}

let decode_snapshot payload =
  let d = Dec.make payload in
  let consume = decode_meta d in
  let next_id = Dec.u32 d in
  let satisfied = Dec.u32 d in
  let dict = Array.of_list (Dec.list d Dec.value) in
  let deref i =
    if i >= Array.length dict then raise (Decode_error "bad value reference");
    dict.(i)
  in
  let tables =
    Dec.list d (fun d ->
        let name = Dec.str d in
        let attrs = Dec.list d Dec.str in
        let tuples =
          Dec.list d (fun d ->
              let arity = Dec.u32 d in
              if arity > 4096 then raise (Decode_error "bad arity");
              Array.init arity (fun _ -> deref (Dec.u32 d)))
        in
        (name, attrs, tuples))
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

(* Keep the newest [keep] snapshots and every segment still needed to
   replay past the oldest kept one; delete the rest. *)
let prune ~keep dirname =
  let entries = list_dir dirname in
  let snaps =
    List.filter_map
      (fun n -> Option.map (fun l -> (l, n)) (snapshot_lsn n))
      entries
    |> List.sort (fun (a, _) (b, _) -> Int64.compare b a)
  in
  let kept, old_snaps =
    let rec split i = function
      | [] -> ([], [])
      | x :: rest ->
        let k, o = split (i + 1) rest in
        if i < keep then (x :: k, o) else (k, x :: o)
    in
    split 0 snaps
  in
  List.iter (fun (_, n) -> Sys.remove (Filename.concat dirname n)) old_snaps;
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
      Sys.remove (Filename.concat dirname name);
      drop rest
    | _ -> ()
  in
  drop segs

(* Test-only fault injection: when set, [write_snapshot_file] raises
   the given exception instead of writing — the moral equivalent of an
   EACCES or ENOSPC from the filesystem, which the test harness cannot
   provoke for real (suites run as root, where chmod is advisory). *)
let snapshot_fault : exn option ref = ref None
let inject_snapshot_failure e = snapshot_fault := e

let write_snapshot_file ~dirname ~lsn payload =
  (match !snapshot_fault with Some e -> raise e | None -> ());
  let name = snapshot_name lsn in
  let path = Filename.concat dirname name in
  let tmp = path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let b = Buffer.create (String.length payload + 24) in
      Buffer.add_string b snapshot_magic;
      Buffer.add_int64_le b lsn;
      Enc.u32 b (String.length payload);
      Buffer.add_string b payload;
      Enc.u32 b (Crc32.string payload);
      Buffer.output_buffer oc b;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir dirname;
  path

(* Write a snapshot, turning filesystem failures (full disk, EACCES,
   a vanished directory) into [Error] instead of an exception — and
   never leaving a half-written [.tmp] behind to confuse a later
   recovery's accounting.  Failures are surfaced on the metrics
   registry and the event stream: a daemon that silently stops
   snapshotting replays an ever-growing journal at the next restart. *)
let try_write_snapshot ~dirname ~lsn payload =
  match write_snapshot_file ~dirname ~lsn payload with
  | path -> Ok path
  | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
    let tmp = Filename.concat dirname (snapshot_name lsn ^ ".tmp") in
    (try if Sys.file_exists tmp then Sys.remove tmp
     with Sys_error _ | Unix.Unix_error _ -> ());
    let why = io_error_to_string e in
    Obs.Counter.incr (Lazy.force c_snapshot_failures);
    Obs.event
      ~args:(fun () -> [ ("lsn", Obs.Int (Int64.to_int lsn)); ("error", Obs.Str why) ])
      "durable.snapshot_failure";
    Error why

let snapshot t =
  if t.closed then invalid_arg "Durable.snapshot: closed";
  fail_stop t @@ fun () ->
  commit_group t;
  if Int64.compare t.next_lsn 1L <= 0 then Ok ()
  else begin
    (* The WAL prefix a snapshot supersedes must be durable before
       pruning may delete it. *)
    if t.cfg.fsync <> Never || t.synced < t.offset then do_fsync t;
    let lsn = last_lsn t in
    match
      try_write_snapshot ~dirname:t.cfg.dir ~lsn
        (encode_snapshot ~db:t.db t.engine)
    with
    | Error why ->
      (* The snapshot never made it to disk, so the journal it was to
         supersede stays the only durable copy: keep appending to the
         current segment and prune NOTHING.  Resetting the cadence
         counter turns the periodic trigger into a retry after another
         full interval instead of an O(store) encode on every subsequent
         group. *)
      t.groups_since_snapshot <- 0;
      Error why
    | Ok _path ->
      close_out_noerr t.oc;
      let path, oc = open_segment ~dir:t.cfg.dir ~first_lsn:t.next_lsn in
      t.seg_path <- path;
      t.oc <- oc;
      t.offset <- segment_header_len;
      t.synced <- segment_header_len;
      t.groups_since_sync <- 0;
      t.groups_since_snapshot <- 0;
      prune ~keep:2 t.cfg.dir;
      if Obs.metrics_on () then Obs.Counter.incr (Lazy.force c_snapshots);
      Ok ()
  end

let maybe_snapshot t =
  if
    t.cfg.snapshot_every > 0
    && t.groups_since_snapshot >= t.cfg.snapshot_every
  then
    (* A failed periodic snapshot has no caller to report to; it is
       already surfaced (counter + event) and the journal remains
       authoritative, so the session carries on and retries after the
       next interval. *)
    match snapshot t with Ok () | Error _ -> ()

(* ------------------------- Journal binding ------------------------- *)

let op_tag = function
  | Online.Journal.Submit_op -> 0
  | Online.Journal.Submit_all_op -> 1
  | Online.Journal.Flush_op -> 2
  | Online.Journal.Withdraw_op -> 3

let commit_group_and_snapshot t =
  fail_stop t @@ fun () ->
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
  | Online.Journal.Op_end { op; fired } ->
    if t.group <> [] then begin
      (match op with
      (* A submit's or withdraw's group is self-delimiting (one effect,
         at most one eviction); only the batched operations need an
         explicit fired-count trailer. *)
      | Online.Journal.Submit_op | Online.Journal.Withdraw_op -> ()
      | Online.Journal.Submit_all_op | Online.Journal.Flush_op ->
        buffer_record t (Commit { op = op_tag op; fired }));
      commit_group_and_snapshot t
    end

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
    Fun.protect ~finally:(fun () -> close_out_noerr t.oc) @@ fun () ->
    (* A failed handle has nothing left it may write. *)
    if t.failed = None then
      fail_stop t (fun () ->
          commit_group t;
          if t.cfg.fsync <> Never then do_fsync t)
  end

let has_wal_files dir =
  Sys.file_exists dir
  && List.exists
       (fun n -> segment_lsn n <> None || snapshot_lsn n <> None)
       (list_dir dir)

let create_engine ?(consume = false) cfg =
  mkdir_p cfg.dir;
  if has_wal_files cfg.dir then
    invalid_arg
      (Printf.sprintf
         "Durable.create_engine: %s already holds a WAL (use recover)" cfg.dir);
  let db = Database.create () in
  let engine = Online.create ~consume db in
  let path, oc = open_segment ~dir:cfg.dir ~first_lsn:1L in
  let t =
    {
      cfg;
      oc;
      seg_path = path;
      next_lsn = 1L;
      offset = segment_header_len;
      synced = segment_header_len;
      group = [];
      groups_since_sync = 0;
      groups_since_snapshot = 0;
      db;
      engine;
      closed = false;
      failed = None;
    }
  in
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
    if len < 24 then Error "too short"
    else if String.sub data 0 8 <> snapshot_magic then Error "bad magic"
    else begin
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
          match decode_snapshot (String.sub data 20 payload_len) with
          | exception Decode_error msg -> Error ("undecodable: " ^ msg)
          | state -> Ok (lsn, state)
      end
    end

let recover cfg =
  if not (Sys.file_exists cfg.dir) then
    Result.Error (Printf.sprintf "%s: no such directory" cfg.dir)
  else begin
    if Obs.metrics_on () then Obs.Counter.incr (Lazy.force c_recoveries);
    let entries = list_dir cfg.dir in
    (* An interrupted snapshot leaves a .tmp that was never renamed —
       it is garbage by construction. *)
    let tmp_cleaned =
      List.filter (fun n -> Filename.check_suffix n ".tmp") entries
    in
    List.iter (fun n -> Sys.remove (Filename.concat cfg.dir n)) tmp_cleaned;
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
            (fun (stored_lsn, s) ->
              if stored_lsn <> lsn then Error "name/LSN mismatch"
              else restore s)
        with
        | Ok restored -> (Some (name, lsn, restored), List.rev skipped)
        | Error why -> pick_snapshot ((name, why) :: skipped) rest)
    in
    let snapshot_pick, snapshots_skipped = pick_snapshot [] snaps in
    let snap_lsn =
      match snapshot_pick with Some (_, lsn, _) -> lsn | None -> 0L
    in
    let state = ref (Option.map (fun (_, _, r) -> r) snapshot_pick) in
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
            | Commit _ -> ()
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
    List.iter
      (fun (first_lsn, name) ->
        let path = Filename.concat cfg.dir name in
        if !truncation <> None then segments_dropped := path :: !segments_dropped
        else begin
          (* Segments fully below the snapshot horizon need no replay;
             their corruption (if any) is irrelevant history. *)
          let covered =
            Int64.compare first_lsn snap_lsn <= 0
            && Int64.compare !expected_lsn (Int64.add snap_lsn 1L) = 0
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
              if not covered then
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
              | Ok () -> ()
              | Error (reason, valid_bytes) ->
                (* Segments ending at or below the snapshot horizon are
                   redundant — snapshots rotate the WAL, so such a
                   segment holds nothing past its covering snapshot and
                   its corruption is irrelevant history. *)
                if not covered then
                  truncation :=
                    Some
                      {
                        t_segment = path;
                        valid_bytes;
                        dropped_bytes = String.length data - valid_bytes;
                        reason;
                      })
          end
        end)
      segments;
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
        if Obs.metrics_on () then
          Obs.Counter.incr (Lazy.force c_truncations));
      if Obs.metrics_on () then
        Obs.Counter.add (Lazy.force c_replayed) !records_replayed;
      (* Recovery checkpoint: make the recovered state durable in a
         fresh snapshot + segment, then delete all older files —
         including any torn bytes, whole-segment.  Nothing is patched
         in place, so a crash during this checkpoint recovers again
         from the same inputs. *)
      let lsn = !last_applied in
      let checkpoint =
        try_write_snapshot ~dirname:cfg.dir ~lsn
          (encode_snapshot ~db engine)
      in
      (match (checkpoint, (!truncation, !segments_dropped)) with
      | Error why, ((Some _, _) | (_, _ :: _)) ->
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
        let next = Int64.add lsn 1L in
        let path, oc = open_segment ~dir:cfg.dir ~first_lsn:next in
        let t =
          {
            cfg;
            oc;
            seg_path = path;
            next_lsn = next;
            offset = segment_header_len;
            synced = segment_header_len;
            group = [];
            groups_since_sync = 0;
            groups_since_snapshot = 0;
            db;
            engine;
            closed = false;
            failed = None;
          }
        in
        (* A failed (but tolerable — clean tail) checkpoint leaves the
           old snapshot + segments as the only durable copy of the
           replayed prefix: they must survive, so skip the prune. *)
        (match checkpoint with
        | Ok _ -> prune ~keep:1 cfg.dir
        | Error _ -> ());
        attach t;
        let report =
          {
            snapshot_loaded =
              Option.map (fun (n, l, _) -> (n, l)) snapshot_pick;
            snapshots_skipped;
            segments_scanned = !segments_scanned;
            records_replayed = !records_replayed;
            groups_replayed = !groups_replayed;
            recovered_lsn = lsn;
            truncation = !truncation;
            segments_dropped = List.rev !segments_dropped;
            tmp_cleaned;
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
    | exception Invalid_argument msg -> Result.Error msg
