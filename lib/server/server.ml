(* Coordination as a service: a single-threaded select loop
   multiplexing socket sessions onto one Online engine.  See the .mli
   for the protocol; the design constraints that shape this file:

   - No JSON or async dependency exists in the tree, so frames carry
     the repo's own lib/json codec and the loop is plain Unix.select —
     the same zero-dependency discipline as lib/obs.
   - Determinism: sessions are processed in session-id order every
     round, so one arrival order always yields one engine-operation
     order.  The differential suite replays that order against a
     sequential reference engine and demands state equality.
   - A disconnecting client is a per-session event, never a process
     event: SIGPIPE is ignored at [create], EPIPE/ECONNRESET tear down
     exactly one session (flight-recorder incident, resources
     released) while every other session continues. *)

open Relational
module Online = Coordination.Online

(* perfbench/ names the codec Server.Json throughout; the alias keeps
   that spelling compiling.  New code calls Json directly. *)
module Json = Json

(* ----------------------------- framing ---------------------------- *)

(* A session's inbound or outbound bytes, live in [bytes.[off, len)]:
   reads and frames append at [len], frames and writes take from [off].
   Once [off] passes half the capacity the live bytes move to the
   front, and a buffer grown past 64 KiB by a large frame shrinks back
   to its first capacity when it empties. *)
module Buf = struct
  type t = {
    mutable bytes : Bytes.t;
    mutable off : int;
    mutable len : int;
    base : int;  (* the first capacity *)
  }

  let create base = { bytes = Bytes.create base; off = 0; len = 0; base }

  let length b = b.len - b.off

  let is_empty b = b.off = b.len

  let clear b =
    b.off <- 0;
    b.len <- 0;
    if Bytes.length b.bytes > 65536 then b.bytes <- Bytes.create b.base

  let move_live b bytes =
    let live = length b in
    Bytes.blit b.bytes b.off bytes 0 live;
    b.bytes <- bytes;
    b.off <- 0;
    b.len <- live

  (* Room for [n] more bytes at [len]: the live bytes move to the front
     when that makes the room, else to a buffer twice as large.  Only
     consumed bytes leave room at the front, so the live bytes move at
     most once between two consumes. *)
  let reserve b n =
    let cap = Bytes.length b.bytes in
    if b.len + n > cap then
      if length b + n <= cap then move_live b b.bytes
      else move_live b (Bytes.create (max (2 * cap) (length b + n)))

  let consume b n =
    b.off <- b.off + n;
    if b.off = b.len then clear b
    else if b.off > Bytes.length b.bytes / 2 then move_live b b.bytes

  (* One [read] of up to the free space, at least 8 KiB of it: the byte
     count, 0 at EOF. *)
  let read fd b =
    reserve b 8192;
    let n = Unix.read fd b.bytes b.len (Bytes.length b.bytes - b.len) in
    b.len <- b.len + n;
    n

  (* One [write] of the live bytes; what it took is consumed. *)
  let write fd b = consume b (Unix.write fd b.bytes b.off (length b))

  (* Responses are printed into one reused buffer, then copied behind
     their length prefix. *)
  let printer = Buffer.create 256

  let add_frame b json =
    Buffer.clear printer;
    Json.to_buffer printer json;
    let n = Buffer.length printer in
    reserve b (4 + n);
    Bytes.set_int32_be b.bytes b.len (Int32.of_int n);
    Buffer.blit printer 0 b.bytes (b.len + 4) n;
    b.len <- b.len + 4 + n;
    if n > 65536 then Buffer.reset printer

  (* The next frame's payload length, once its 4-byte prefix is in. *)
  let has_prefix b = length b >= 4

  let prefix b = Int32.to_int (Bytes.get_int32_be b.bytes b.off)

  (* Parse the [n]-byte payload behind the prefix in place, then consume
     the frame.  The parser copies what it keeps, so the bytes may be
     reused once it returns. *)
  let take_frame b n =
    let r = Json.parse_slice (Bytes.unsafe_to_string b.bytes) (b.off + 4) n in
    consume b (4 + n);
    r
end

(* First capacities: an inbound buffer takes reads of 8 KiB with a
   partial frame left over. *)
let inbound = 16384

let outbound = 4096

(* ---------------------------- metrics ----------------------------- *)

let h_request_ns =
  Obs.Histogram.declare ~help:"per-request service latency" "server.request_ns"

let c_requests =
  Obs.Counter.declare ~help:"request frames dispatched" "server.requests"

let c_overloaded =
  Obs.Counter.declare ~help:"submissions refused by admission control"
    "server.overloaded"

let c_abnormal =
  Obs.Counter.declare ~help:"sessions torn down abnormally"
    "server.abnormal_disconnects"

let c_sessions = Obs.Counter.declare ~help:"sessions accepted" "server.sessions"

let c_notifications =
  Obs.Counter.declare ~help:"notification frames pushed" "server.notifications"

(* ----------------------------- server ----------------------------- *)

type listen = Unix_socket of string | Tcp of string * int

type config = {
  listen : listen;
  max_pending : int;
  max_sessions : int;
  max_frame : int;
  max_buffered : int;
  verbose : bool;
}

let default_config listen =
  {
    listen;
    max_pending = 1024;
    max_sessions = 0;
    max_frame = 1 lsl 20;
    max_buffered = 4 lsl 20;
    verbose = false;
  }

(* One constructor: [perfbench/] spells [Server.Sequential], so the
   variant stays even though the service holds one engine type. *)
type engine = Sequential of Online.t

type binding = {
  db : Database.t;
  engine : engine;
  durable : Durable.t option;
  guard : Resilient.t option;
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  inb : Buf.t;  (* inbound bytes not yet framed *)
  out : Buf.t;  (* outbound bytes not yet written *)
  mutable subscribed : bool;
  mutable dead : bool;
}

type t = {
  cfg : config;
  binding : binding;
  engine : Online.t;
  mutable listen_fd : Unix.file_descr option;
  bound_port : int;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable accepted : int;
  mutable stopped : bool;
}

let resolve_addr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let addr =
      match Unix.inet_addr_of_string host with
      | a -> a
      | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
          addrs.(0)
        | _ | (exception Not_found) ->
          invalid_arg (Printf.sprintf "cannot resolve host %s" host))
    in
    (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let create cfg (binding : binding) =
  (* A client hanging up between our select and our write must surface
     as EPIPE on that one session, not as a fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain, addr = resolve_addr cfg.listen in
  (match cfg.listen with
  | Unix_socket path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match cfg.listen with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_socket _ -> ());
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> -1
  in
  let (Sequential engine) = binding.engine in
  {
    cfg;
    binding;
    engine;
    listen_fd = Some fd;
    bound_port;
    sessions = Hashtbl.create 16;
    next_sid = 0;
    accepted = 0;
    stopped = false;
  }

let port t =
  if t.bound_port < 0 then invalid_arg "Server.port: unix-domain server"
  else t.bound_port

let live_sessions t =
  Hashtbl.fold (fun _ s n -> if s.dead then n else n + 1) t.sessions 0

let sessions_served t = t.accepted

let close_listener t =
  match t.listen_fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
    | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ());
    t.listen_fd <- None

let teardown t s ~abnormal ~reason =
  if not s.dead then begin
    s.dead <- true;
    (try Unix.close s.fd with Unix.Unix_error _ -> ());
    if abnormal then begin
      Obs.Counter.incr c_abnormal;
      Obs.event
        ~args:(fun () ->
          [ ("sid", Obs.Int s.sid); ("reason", Obs.Str reason) ])
        "server.abnormal_disconnect";
      Obs.Flight_recorder.incident
        (Printf.sprintf "session %d abnormal disconnect: %s" s.sid reason)
    end
    else
      Obs.event
        ~args:(fun () -> [ ("sid", Obs.Int s.sid) ])
        "server.session_close";
    if t.cfg.verbose then
      Printf.printf "session %d: closed%s\n%!" s.sid
        (if abnormal then Printf.sprintf " (%s)" reason else "")
  end

(* Remove dead sessions from the table after each round (never during
   iteration). *)
let sweep t =
  let dead =
    Hashtbl.fold (fun sid s acc -> if s.dead then sid :: acc else acc)
      t.sessions []
  in
  List.iter (Hashtbl.remove t.sessions) dead

let enqueue t s json =
  if not s.dead then begin
    Buf.add_frame s.out json;
    if Buf.length s.out > t.cfg.max_buffered then
      (* The client stopped draining its socket; buffering without
         bound would let one slow consumer take the server down. *)
      teardown t s ~abnormal:true ~reason:"slow consumer"
  end

let subscribed_sessions t =
  Hashtbl.fold
    (fun _ s acc -> if s.subscribed && not s.dead then s :: acc else acc)
    t.sessions []
  |> List.sort (fun a b -> compare a.sid b.sid)

(* A fired set goes on the wire as its members' names only, so the
   engine is asked for no witness ([~witness:false]). *)
let queries_json (c : Online.coordinated) =
  Json.Arr
    (List.map (fun q -> Json.Str q.Entangled.Query.name) c.Online.queries)

let notify_matched t fired =
  if fired <> [] then
    match subscribed_sessions t with
    | [] -> ()
    | subs ->
      List.iter
        (fun c ->
          let fr =
            Json.Obj
              [ ("notify", Json.Str "matched"); ("queries", queries_json c) ]
          in
          List.iter
            (fun s ->
              enqueue t s fr;
              Obs.Counter.incr c_notifications)
            subs)
        fired

let notify_degraded t = function
  | None -> ()
  | Some (d : Resilient.degradation) ->
    let fr =
      Json.Obj
        [
          ("notify", Json.Str "degraded");
          ("reason", Json.Str (Resilient.error_to_string d.Resilient.reason));
          ("note", Json.Str d.Resilient.note);
        ]
    in
    List.iter
      (fun s ->
        enqueue t s fr;
        Obs.Counter.incr c_notifications)
      (subscribed_sessions t)

(* --------------------------- dispatch ----------------------------- *)

exception Bad_request of string

let value_of_json = function
  | Json.Int i -> Value.int i
  | Json.Str s -> Value.str s
  | Json.Bool b -> Value.bool b
  | _ -> raise (Bad_request "bad_value")

let request_id req =
  match Json.mem "id" req with Some v -> v | None -> Json.Null

let error_frame ?(fields = []) id code =
  Json.Obj
    (("id", id) :: ("ok", Json.Bool false) :: ("error", Json.Str code) :: fields)

(* The error frame for a {!Database.schema_error}.  Inserts and
   submitted query bodies share it, so a body the evaluator could not
   plan is refused with the same codes and fields as a bad insert. *)
let schema_error_frame = function
  | Database.No_table rel -> ("no_table", [ ("rel", Json.Str rel) ])
  | Database.Bad_arity { rel; expected; got } ->
    ( "bad_arity",
      [
        ("rel", Json.Str rel);
        ("expected", Json.Int expected);
        ("got", Json.Int got);
      ] )

let handle_request t s req =
  let respond fields =
    enqueue t s
      (Json.Obj (("id", request_id req) :: ("ok", Json.Bool true) :: fields))
  in
  let err ?fields code = enqueue t s (error_frame ?fields (request_id req) code) in
  let degraded_fields = function
    | None -> []
    | Some (_ : Resilient.degradation) -> [ ("degraded", Json.Bool true) ]
  in
  let require f key =
    match f key req with Some v -> v | None -> raise (Bad_request ("missing_" ^ key))
  in
  match Json.str_mem "op" req with
  | None -> err "missing_op"
  | Some op -> (
    try
      match op with
      | "submit" -> (
        let src = require Json.str_mem "query" in
        match Entangled.Parser.parse_query src with
        | exception Entangled.Parser.Syntax_error (pos, msg) ->
          err "syntax"
            ~fields:
              [ ("detail", Json.Str (Printf.sprintf "%d: %s" pos msg)) ]
        | q -> (
          match
            Database.body_schema_error t.binding.db q.Entangled.Query.body
          with
          | Some e ->
            let code, fields = schema_error_frame e in
            err code ~fields
          | None when Online.pending_count t.engine >= t.cfg.max_pending
            ->
            (* Typed admission-control refusal instead of unbounded
               queueing: the client backs off, the pool stays bounded. *)
            Obs.Counter.incr c_overloaded;
            err "overloaded"
              ~fields:
                [
                  ("pending", Json.Int (Online.pending_count t.engine));
                  ("max_pending", Json.Int t.cfg.max_pending);
                ]
          | None -> (
            Option.iter Resilient.start_solve t.binding.guard;
            let pool_id = Online.next_id t.engine in
            let r = Online.submit ~witness:false t.engine q in
            let degraded = Online.last_degradation t.engine in
            (* Notifications are enqueued BEFORE the response, so a
               subscribed requester reads its own match/degradation
               push frames first and the echoed response last — a
               deterministic frame order scripted clients rely on. *)
            (match r with
            | Online.Coordinated c -> notify_matched t [ c ]
            | Online.Pending | Online.Rejected_unsafe _ -> ());
            notify_degraded t degraded;
            match r with
            | Online.Coordinated c ->
              respond
                (("result", Json.Str "coordinated")
                :: ("queries", queries_json c)
                :: degraded_fields degraded)
            | Online.Pending ->
              respond
                (("result", Json.Str "pending")
                :: ("pool_id", Json.Int pool_id)
                :: degraded_fields degraded)
            | Online.Rejected_unsafe ws ->
              respond
                (("result", Json.Str "rejected_unsafe")
                :: ("conflicts", Json.Int (List.length ws))
                :: degraded_fields degraded))))
      | "retire" ->
        let pool_id = require Json.int_mem "pool_id" in
        if Online.withdraw t.engine pool_id then
          respond [ ("result", Json.Str "withdrawn") ]
        else err "not_found" ~fields:[ ("pool_id", Json.Int pool_id) ]
      | "flush" ->
        Option.iter Resilient.start_solve t.binding.guard;
        let fired = Online.flush ~witness:false t.engine in
        let degraded = Online.last_degradation t.engine in
        notify_matched t fired;
        notify_degraded t degraded;
        respond
          (("result", Json.Str "flushed")
          :: ("fired", Json.Int (List.length fired))
          :: ("sets", Json.Arr (List.map queries_json fired))
          :: degraded_fields degraded)
      | "status" ->
        let wal =
          match t.binding.durable with
          | None -> Json.Null
          | Some d ->
            Json.Obj
              [
                ("dir", Json.Str (Durable.dir d));
                ("last_lsn", Json.Int (Int64.to_int (Durable.last_lsn d)));
              ]
        in
        respond
          [
            ("result", Json.Str "status");
            ("pending", Json.Int (Online.pending_count t.engine));
            ("satisfied", Json.Int (Online.total_coordinated t.engine));
            ("next_id", Json.Int (Online.next_id t.engine));
            ("sessions", Json.Int (live_sessions t));
            ("served", Json.Int t.accepted);
            ("wal", wal);
          ]
      | "subscribe" ->
        s.subscribed <- true;
        respond [ ("result", Json.Str "subscribed") ]
      | "insert" -> (
        let rel = require Json.str_mem "rel" in
        let tuple =
          match Json.mem "tuple" req with
          | Some (Json.Arr items) -> List.map value_of_json items
          | _ -> raise (Bad_request "missing_tuple")
        in
        match Database.schema_error t.binding.db rel (List.length tuple) with
        | Some e ->
          let code, fields = schema_error_frame e in
          err code ~fields
        | None ->
          Database.insert t.binding.db rel tuple;
          Option.iter
            (fun d -> Durable.journal_insert d rel tuple)
            t.binding.durable;
          respond [ ("result", Json.Str "inserted") ])
      | "create_table" ->
        let name = require Json.str_mem "name" in
        let attrs =
          match Json.mem "attrs" req with
          | Some (Json.Arr items) ->
            List.map
              (function
                | Json.Str a -> a
                | _ -> raise (Bad_request "bad_attrs"))
              items
          | _ -> raise (Bad_request "missing_attrs")
        in
        if Database.mem_relation t.binding.db name then
          err "table_exists" ~fields:[ ("name", Json.Str name) ]
        else (
          match Schema.validate name attrs with
          | Error why -> err "bad_schema" ~fields:[ ("detail", Json.Str why) ]
          | Ok () ->
            ignore (Database.create_table' t.binding.db name attrs);
            Option.iter
              (fun d -> Durable.journal_create_table d name attrs)
              t.binding.durable;
            respond [ ("result", Json.Str "table_created") ])
      | other -> err "bad_op" ~fields:[ ("op", Json.Str other) ]
    with Bad_request code -> err code)

(* The frame of [n] payload bytes at the front of [s.inb]. *)
let handle_frame t s n =
  let t0 = Obs.now_ns_int () in
  (match Buf.take_frame s.inb n with
  | Error why ->
    enqueue t s
      (error_frame Json.Null "bad_json" ~fields:[ ("detail", Json.Str why) ])
  | Ok req -> (
    (* Last resort: a request that raises anything not yet known costs
       that one request an [internal_error] frame and the flight
       recorder an incident — never the process and every other
       session with it.  Out_of_memory and Stack_overflow say nothing
       about the request and still propagate, and so does a WAL write
       failure: the engine has moved past what the log holds, so the
       server stops rather than answer from state a restart would not
       recover. *)
    try handle_request t s req with
    | (Out_of_memory | Stack_overflow | Durable.Wal_failed _) as e -> raise e
    | e ->
      Obs.Flight_recorder.incident
        (Printf.sprintf "session %d internal error: %s" s.sid
           (Printexc.to_string e));
      enqueue t s (error_frame (request_id req) "internal_error")));
  Obs.Counter.incr c_requests;
  Obs.Histogram.observe_i h_request_ns (Obs.now_ns_int () - t0)

let drain_frames t s =
  let continue = ref true in
  while !continue && not s.dead do
    if not (Buf.has_prefix s.inb) then continue := false
    else begin
      let n = Buf.prefix s.inb in
      if n < 0 || n > t.cfg.max_frame then begin
        (* Framing is no longer trustworthy past an insane length;
           answer once, then drop the session.  The answer leaves now,
           so the groups of the responses before it are written first. *)
        enqueue t s
          (error_frame Json.Null "frame_too_large");
        Option.iter Durable.write_deferred t.binding.durable;
        (try Buf.write s.fd s.out with Unix.Unix_error _ -> ());
        teardown t s ~abnormal:true ~reason:"oversized frame";
        continue := false
      end
      else if Buf.length s.inb < 4 + n then continue := false
      else handle_frame t s n
    end
  done

let read_session t s =
  match Buf.read s.fd s.inb with
  | 0 ->
    (* EOF mid-frame, or with responses still undelivered, is an
       abnormal end; a bare EOF between frames is the clean goodbye. *)
    if not (Buf.is_empty s.inb && Buf.is_empty s.out) then
      teardown t s ~abnormal:true ~reason:"eof mid-stream"
    else teardown t s ~abnormal:false ~reason:"eof"
  | _ -> drain_frames t s
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
    teardown t s ~abnormal:true ~reason:"connection reset"

let write_session t s =
  if (not (Buf.is_empty s.out)) && not s.dead then
    match Buf.write s.fd s.out with
    | () -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      teardown t s ~abnormal:true ~reason:"broken pipe"

let rec accept_loop t =
  match t.listen_fd with
  | None -> ()
  | Some lfd -> (
    match Unix.accept lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (* A response that leaves in a second small write must not wait
         for the client's delayed ACK (Nagle). *)
      (match t.cfg.listen with
      | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Unix_socket _ -> ());
      t.next_sid <- t.next_sid + 1;
      t.accepted <- t.accepted + 1;
      let s =
        {
          sid = t.next_sid;
          fd;
          inb = Buf.create inbound;
          out = Buf.create outbound;
          subscribed = false;
          dead = false;
        }
      in
      Hashtbl.replace t.sessions s.sid s;
      Obs.Counter.incr c_sessions;
      Obs.event
        ~args:(fun () -> [ ("sid", Obs.Int s.sid) ])
        "server.session_open";
      if t.cfg.verbose then Printf.printf "session %d: connected\n%!" s.sid;
      if t.cfg.max_sessions > 0 && t.accepted >= t.cfg.max_sessions then
        close_listener t
      else accept_loop t
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ())

let sorted_sessions t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
  |> List.sort (fun a b -> compare a.sid b.sid)

let step ?(timeout = 0.05) t =
  if t.stopped then false
  else begin
    let sess = sorted_sessions t in
    let rds =
      (match t.listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.filter_map (fun s -> if s.dead then None else Some s.fd) sess
    in
    let wrs =
      List.filter_map
        (fun s ->
          if (not s.dead) && not (Buf.is_empty s.out) then Some s.fd else None)
        sess
    in
    (match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | rd, wr, _ ->
      List.iter
        (fun s -> if (not s.dead) && List.mem s.fd wr then write_session t s)
        sess;
      (* One group commit for the round: no response leaves before the
         groups it acknowledges are written.  When they cannot be, the
         server stops with no unsent response leaving. *)
      let read () =
        List.iter
          (fun s -> if (not s.dead) && List.mem s.fd rd then read_session t s)
          sess
      in
      (match t.binding.durable with
      | None -> read ()
      | Some d -> (
        try Durable.batch d read
        with Durable.Wal_failed _ as e ->
          List.iter (fun s -> Buf.clear s.out) sess;
          raise e));
      (* Accept after the reads, so a session's end that is ready in
         the same round as a new connection is logged first. *)
      (match t.listen_fd with
      | Some lfd when List.mem lfd rd -> accept_loop t
      | _ -> ());
      (* Push responses produced this round without waiting for the
         next select — interactive latency, and frames reach a client
         that disconnects right after its request. *)
      List.iter (fun s -> write_session t s) sess);
    sweep t;
    if
      t.cfg.max_sessions > 0 && t.listen_fd = None
      && Hashtbl.length t.sessions = 0
    then t.stopped <- true;
    not t.stopped
  end

let run t = while step t do () done

let stop t =
  if not t.stopped then begin
    List.iter
      (fun s -> teardown t s ~abnormal:false ~reason:"server stop")
      (sorted_sessions t);
    sweep t;
    close_listener t;
    t.stopped <- true
  end

(* ----------------------------- client ----------------------------- *)

module Client = struct
  type conn = { fd : Unix.file_descr; inb : Buf.t; out : Buf.t }

  exception Bad_frame of string
  exception Closed

  let max_frame = 64 lsl 20

  let connect ?(retries = 40) listen =
    let domain, addr = resolve_addr listen in
    let rec go n =
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0
        ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        go (n - 1)
    in
    { fd = go retries; inb = Buf.create inbound; out = Buf.create outbound }

  let send conn json =
    (* Bytes a raising send left behind are dropped. *)
    Buf.clear conn.out;
    Buf.add_frame conn.out json;
    let rec w () =
      if not (Buf.is_empty conn.out) then
        match Buf.write conn.fd conn.out with
        | () -> w ()
        | exception Unix.Unix_error (EINTR, _, _) -> w ()
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          raise Closed
    in
    w ()

  let take_frame conn =
    if not (Buf.has_prefix conn.inb) then None
    else
      let n = Buf.prefix conn.inb in
      if n < 0 || n > max_frame then
        raise (Bad_frame (Printf.sprintf "length prefix %d" n))
      else if Buf.length conn.inb < 4 + n then None
      else
        match Buf.take_frame conn.inb n with
        | Ok j -> Some j
        | Error why -> raise (Bad_frame ("payload is not JSON: " ^ why))

  (* Append what one read returns to [inb]; EOF or a reset peer is
     [Closed]. *)
  let fill conn =
    match Buf.read conn.fd conn.inb with
    | 0 | (exception Unix.Unix_error (ECONNRESET, _, _)) -> raise Closed
    | _ -> ()

  let try_recv conn =
    match take_frame conn with
    | Some j -> Some j
    | None -> (
      Unix.set_nonblock conn.fd;
      Fun.protect
        ~finally:(fun () ->
          try Unix.clear_nonblock conn.fd with Unix.Unix_error _ -> ())
        (fun () ->
          match fill conn with
          | () -> take_frame conn
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
            None))

  let recv ?(timeout = 5.0) conn =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      match take_frame conn with
      | Some j -> Some j
      | None ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then None
        else (
          match Unix.select [ conn.fd ] [] [] remaining with
          | [], _, _ -> None
          | _ -> (
            match fill conn with
            | () -> go ()
            | exception Unix.Unix_error (EINTR, _, _) -> go ())
          | exception Unix.Unix_error (EINTR, _, _) -> go ())
    in
    go ()

  let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

  let abort conn =
    (* Zero linger turns close into an RST: the server sees
       ECONNRESET/EPIPE immediately — the mid-stream client death the
       teardown tests simulate. *)
    (try Unix.setsockopt_optint conn.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    close conn
end
