(* Coordination as a service: a single-threaded select loop
   multiplexing socket sessions onto one Online engine.  See the .mli
   for the protocol; the design constraints that shape this file:

   - No JSON or async dependency exists in the tree, so frames carry a
     hand-rolled minimal JSON (module Json) and the loop is plain
     Unix.select — the same zero-dependency discipline as lib/obs.
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
module Online_sharded = Coordination.Online_sharded

(* ------------------------------ JSON ------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      String.iter expect word;
      value
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let digit c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      let v = ref 0 in
      for i = 0 to 3 do
        v := (!v lsl 4) lor digit s.[!pos + i]
      done;
      pos := !pos + 4;
      !v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'
          | Some '\\' -> advance (); Buffer.add_char b '\\'
          | Some '/' -> advance (); Buffer.add_char b '/'
          | Some 'b' -> advance (); Buffer.add_char b '\b'
          | Some 'f' -> advance (); Buffer.add_char b '\012'
          | Some 'n' -> advance (); Buffer.add_char b '\n'
          | Some 'r' -> advance (); Buffer.add_char b '\r'
          | Some 't' -> advance (); Buffer.add_char b '\t'
          | Some 'u' ->
            advance ();
            let cp = hex4 () in
            (* A high surrogate and the low surrogate escaped right
               after it are one code point: encode it as the same 4
               UTF-8 bytes a raw spelling would carry, so both
               spellings of a constant are one value. *)
            let cp =
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else fail "unpaired surrogate"
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
              else cp
            in
            Buffer.add_utf_8_uchar b (Uchar.of_int cp)
          | _ -> fail "bad escape");
          go ()
        | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false
      do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "empty input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes";
    v

  let parse s = match parse_exn s with v -> Ok v | exception Bad m -> Error m

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let to_string v =
    let b = Buffer.create 64 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Int i -> Buffer.add_string b (string_of_int i)
      | Float f -> Buffer.add_string b (Printf.sprintf "%.12g" f)
      | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
      | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          items;
        Buffer.add_char b ']'
      | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
    in
    go v;
    Buffer.contents b

  let mem key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let str_mem key v =
    match mem key v with Some (Str s) -> Some s | _ -> None

  let int_mem key v = match mem key v with Some (Int i) -> Some i | _ -> None
end

(* ----------------------------- framing ---------------------------- *)

let frame json =
  let payload = Json.to_string json in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* ---------------------------- metrics ----------------------------- *)

let h_request_ns =
  lazy (Obs.Histogram.make ~help:"per-request service latency" "server.request_ns")

let c_requests =
  lazy (Obs.Counter.make ~help:"request frames dispatched" "server.requests")

let c_overloaded =
  lazy
    (Obs.Counter.make ~help:"submissions refused by admission control"
       "server.overloaded")

let c_abnormal =
  lazy
    (Obs.Counter.make ~help:"sessions torn down abnormally"
       "server.abnormal_disconnects")

let c_sessions =
  lazy (Obs.Counter.make ~help:"sessions accepted" "server.sessions")

let c_notifications =
  lazy
    (Obs.Counter.make ~help:"notification frames pushed"
       "server.notifications")

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

(* One engine shape per binding; every request dispatches through the
   eng_* helpers so the protocol layer never cares which.  The sharded
   engine's operations and journal stream are observationally identical
   to the sequential one's, so the differential suite can compare a
   sharded server against a sequential reference verbatim. *)
type engine =
  | Sequential of Online.t
  | Sharded of Online_sharded.t

type binding = {
  db : Database.t;
  engine : engine;
  durable : Durable.t option;
  guard : Resilient.t option;
}

let eng_submit = function
  | Sequential e -> Online.submit e
  | Sharded e -> Online_sharded.submit e

let eng_withdraw = function
  | Sequential e -> Online.withdraw e
  | Sharded e -> Online_sharded.withdraw e

let eng_flush = function
  | Sequential e -> Online.flush e
  | Sharded e -> Online_sharded.flush e

let eng_pending_count = function
  | Sequential e -> Online.pending_count e
  | Sharded e -> Online_sharded.pending_count e

let eng_next_id = function
  | Sequential e -> Online.next_id e
  | Sharded e -> Online_sharded.next_id e

let eng_total_coordinated = function
  | Sequential e -> Online.total_coordinated e
  | Sharded e -> Online_sharded.total_coordinated e

let eng_last_degradation = function
  | Sequential e -> Online.last_degradation e
  | Sharded e -> Online_sharded.last_degradation e

let eng_domains = function
  | Sequential _ -> 1
  | Sharded e -> Online_sharded.domains e

type session = {
  sid : int;
  fd : Unix.file_descr;
  mutable inb : string;  (* inbound bytes not yet framed *)
  mutable out : string;  (* outbound bytes not yet written *)
  mutable subscribed : bool;
  mutable dead : bool;
}

type t = {
  cfg : config;
  binding : binding;
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

let create cfg binding =
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
  {
    cfg;
    binding;
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
      if Obs.metrics_on () then Obs.Counter.incr (Lazy.force c_abnormal);
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
    s.out <- s.out ^ frame json;
    if String.length s.out > t.cfg.max_buffered then
      (* The client stopped draining its socket; buffering without
         bound would let one slow consumer take the server down. *)
      teardown t s ~abnormal:true ~reason:"slow consumer"
  end

let subscribed_sessions t =
  Hashtbl.fold
    (fun _ s acc -> if s.subscribed && not s.dead then s :: acc else acc)
    t.sessions []
  |> List.sort (fun a b -> compare a.sid b.sid)

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
              if Obs.metrics_on () then
                Obs.Counter.incr (Lazy.force c_notifications))
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
        if Obs.metrics_on () then
          Obs.Counter.incr (Lazy.force c_notifications))
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

let handle_request t s req =
  let respond ~ok fields =
    enqueue t s
      (Json.Obj (("id", request_id req) :: ("ok", Json.Bool ok) :: fields))
  in
  let err ?(fields = []) code =
    respond ~ok:false (("error", Json.Str code) :: fields)
  in
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
        | q ->
          if eng_pending_count t.binding.engine >= t.cfg.max_pending
          then begin
            (* Typed admission-control refusal instead of unbounded
               queueing: the client backs off, the pool stays bounded. *)
            if Obs.metrics_on () then
              Obs.Counter.incr (Lazy.force c_overloaded);
            err "overloaded"
              ~fields:
                [
                  ("pending", Json.Int (eng_pending_count t.binding.engine));
                  ("max_pending", Json.Int t.cfg.max_pending);
                ]
          end
          else begin
            Option.iter Resilient.start_solve t.binding.guard;
            let pool_id = eng_next_id t.binding.engine in
            let r = eng_submit t.binding.engine q in
            let degraded = eng_last_degradation t.binding.engine in
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
              respond ~ok:true
                (("result", Json.Str "coordinated")
                :: ("queries", queries_json c)
                :: degraded_fields degraded)
            | Online.Pending ->
              respond ~ok:true
                (("result", Json.Str "pending")
                :: ("pool_id", Json.Int pool_id)
                :: degraded_fields degraded)
            | Online.Rejected_unsafe ws ->
              respond ~ok:true
                (("result", Json.Str "rejected_unsafe")
                :: ("conflicts", Json.Int (List.length ws))
                :: degraded_fields degraded)
          end)
      | "retire" ->
        let pool_id = require Json.int_mem "pool_id" in
        if eng_withdraw t.binding.engine pool_id then
          respond ~ok:true [ ("result", Json.Str "withdrawn") ]
        else err "not_found" ~fields:[ ("pool_id", Json.Int pool_id) ]
      | "flush" ->
        Option.iter Resilient.start_solve t.binding.guard;
        let fired = eng_flush t.binding.engine in
        let degraded = eng_last_degradation t.binding.engine in
        notify_matched t fired;
        notify_degraded t degraded;
        respond ~ok:true
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
        respond ~ok:true
          [
            ("result", Json.Str "status");
            ("pending", Json.Int (eng_pending_count t.binding.engine));
            ("satisfied", Json.Int (eng_total_coordinated t.binding.engine));
            ("next_id", Json.Int (eng_next_id t.binding.engine));
            ("domains", Json.Int (eng_domains t.binding.engine));
            ("sessions", Json.Int (live_sessions t));
            ("served", Json.Int t.accepted);
            ("wal", wal);
          ]
      | "subscribe" ->
        s.subscribed <- true;
        respond ~ok:true [ ("result", Json.Str "subscribed") ]
      | "insert" -> (
        let rel = require Json.str_mem "rel" in
        let tuple =
          match Json.mem "tuple" req with
          | Some (Json.Arr items) -> List.map value_of_json items
          | _ -> raise (Bad_request "missing_tuple")
        in
        match Database.relation_opt t.binding.db rel with
        | None -> err "no_table" ~fields:[ ("rel", Json.Str rel) ]
        | Some r when Relation.arity r <> List.length tuple ->
          err "bad_arity"
            ~fields:
              [
                ("rel", Json.Str rel);
                ("expected", Json.Int (Relation.arity r));
                ("got", Json.Int (List.length tuple));
              ]
        | Some _ ->
          Database.insert t.binding.db rel tuple;
          Option.iter
            (fun d -> Durable.journal_insert d rel tuple)
            t.binding.durable;
          respond ~ok:true [ ("result", Json.Str "inserted") ])
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
            respond ~ok:true [ ("result", Json.Str "table_created") ])
      | other -> err "bad_op" ~fields:[ ("op", Json.Str other) ]
    with Bad_request code -> err code)

let handle_frame t s payload =
  let t0 = Obs.now_ns () in
  (match Json.parse payload with
  | Error why ->
    enqueue t s
      (Json.Obj
         [
           ("id", Json.Null);
           ("ok", Json.Bool false);
           ("error", Json.Str "bad_json");
           ("detail", Json.Str why);
         ])
  | Ok req -> handle_request t s req);
  if Obs.metrics_on () then begin
    Obs.Counter.incr (Lazy.force c_requests);
    Obs.Histogram.observe (Lazy.force h_request_ns)
      (Int64.sub (Obs.now_ns ()) t0)
  end

let drain_frames t s =
  let continue = ref true in
  while !continue && not s.dead do
    let len = String.length s.inb in
    if len < 4 then continue := false
    else begin
      let n = Int32.to_int (String.get_int32_be s.inb 0) in
      if n < 0 || n > t.cfg.max_frame then begin
        (* Framing is no longer trustworthy past an insane length;
           answer once, then drop the session. *)
        enqueue t s
          (Json.Obj
             [
               ("id", Json.Null);
               ("ok", Json.Bool false);
               ("error", Json.Str "frame_too_large");
             ]);
        (try
           ignore
             (Unix.write_substring s.fd s.out 0 (String.length s.out))
         with Unix.Unix_error _ -> ());
        teardown t s ~abnormal:true ~reason:"oversized frame";
        continue := false
      end
      else if len < 4 + n then continue := false
      else begin
        let payload = String.sub s.inb 4 n in
        s.inb <- String.sub s.inb (4 + n) (len - 4 - n);
        handle_frame t s payload
      end
    end
  done

let read_buf = Bytes.create 8192

let read_session t s =
  match Unix.read s.fd read_buf 0 (Bytes.length read_buf) with
  | 0 ->
    (* EOF mid-frame, or with responses still undelivered, is an
       abnormal end; a bare EOF between frames is the clean goodbye. *)
    if s.inb <> "" || s.out <> "" then
      teardown t s ~abnormal:true ~reason:"eof mid-stream"
    else teardown t s ~abnormal:false ~reason:"eof"
  | n ->
    s.inb <- s.inb ^ Bytes.sub_string read_buf 0 n;
    drain_frames t s
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
    teardown t s ~abnormal:true ~reason:"connection reset"

let write_session t s =
  if s.out <> "" && not s.dead then
    match Unix.write_substring s.fd s.out 0 (String.length s.out) with
    | n -> s.out <- String.sub s.out n (String.length s.out - n)
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
      t.next_sid <- t.next_sid + 1;
      t.accepted <- t.accepted + 1;
      let s =
        {
          sid = t.next_sid;
          fd;
          inb = "";
          out = "";
          subscribed = false;
          dead = false;
        }
      in
      Hashtbl.replace t.sessions s.sid s;
      if Obs.metrics_on () then Obs.Counter.incr (Lazy.force c_sessions);
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
        (fun s -> if (not s.dead) && s.out <> "" then Some s.fd else None)
        sess
    in
    (match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | rd, wr, _ ->
      (match t.listen_fd with
      | Some lfd when List.mem lfd rd -> accept_loop t
      | _ -> ());
      List.iter
        (fun s -> if (not s.dead) && List.mem s.fd wr then write_session t s)
        sess;
      List.iter
        (fun s -> if (not s.dead) && List.mem s.fd rd then read_session t s)
        sess;
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
  type conn = { fd : Unix.file_descr; mutable inb : string }

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
    { fd = go retries; inb = "" }

  let send conn json =
    let data = frame json in
    let len = String.length data in
    let rec w off =
      if off < len then
        match Unix.write_substring conn.fd data off (len - off) with
        | n -> w (off + n)
        | exception Unix.Unix_error (EINTR, _, _) -> w off
    in
    w 0

  let take_frame conn =
    let len = String.length conn.inb in
    if len < 4 then None
    else
      let n = Int32.to_int (String.get_int32_be conn.inb 0) in
      if len < 4 + n then None
      else begin
        let payload = String.sub conn.inb 4 n in
        conn.inb <- String.sub conn.inb (4 + n) (len - 4 - n);
        match Json.parse payload with Ok j -> Some j | Error _ -> None
      end

  let buf = Bytes.create 8192

  let try_recv conn =
    match take_frame conn with
    | Some j -> Some j
    | None -> (
      Unix.set_nonblock conn.fd;
      Fun.protect
        ~finally:(fun () ->
          try Unix.clear_nonblock conn.fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.read conn.fd buf 0 (Bytes.length buf) with
          | 0 -> None
          | n ->
            conn.inb <- conn.inb ^ Bytes.sub_string buf 0 n;
            take_frame conn
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
            match Unix.read conn.fd buf 0 (Bytes.length buf) with
            | 0 -> None
            | n ->
              conn.inb <- conn.inb ^ Bytes.sub_string buf 0 n;
              go ()
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
