(* The service layer, case by case.

   The server is a single-threaded select loop with a public [step], so
   the tests drive server and in-process clients from one thread: send
   a frame, pump [step] until the response arrives.  The cases pin a
   mid-stream kill + restart over a WAL (stop without Durable.close,
   recover, continue over fresh sockets), abnormal disconnects (a
   client dying mid-frame or mid-notification must tear down exactly
   one session while every other session keeps being served), budgets,
   admission control, protocol errors, framing and group commit.
   Served random traces against the rebuild-everything oracle live in
   the differential harness (test/test_differential.ml). *)

open Relational
open Helpers
module Online = Coordination.Online

(* Seed the schema over the wire (journaled when a WAL is attached). *)
let seed_over_wire srv conn =
  List.iter
    (fun f -> ignore (rpc_ok ~ctx:"seed" srv conn f))
    (List.concat (frames seed_ops))

(* A submit request, with [id] echoed if given. *)
let submit ?id q =
  Json.Obj
    ((match id with Some i -> [ ("id", Json.Int i) ] | None -> [])
    @ [ ("op", Json.Str "submit"); ("query", Json.Str q) ])

(* A pair over Zurich flights: [q1] waits for [q2]. *)
let q1 = "qa: { R(G1, y) } R(G0, x) :- F(x, Zurich)."
let q2 = "qb: { R(G0, y) } R(G1, x) :- F(x, Zurich)."

(* ------------------- kill the server mid-stream ------------------- *)

(* A fixed script over three sessions, killed mid-stream: the sockets
   die and the WAL handle is never closed.  The restart recovers the
   directory onto the state the killed server held, from a snapshot and
   with a clean tail, and serves fresh sockets: the pair split across
   the kill fires.  The differential harness (test/test_differential.ml)
   kills and restarts served random traces against the oracle. *)
let test_kill_and_restart () =
  (* A killed process takes its snapshot writer with it.  A handle with
     a seam has no writer thread, so each snapshot is written on this
     thread right after the request that hands it off, instead of
     racing the restart's recovery of the same directory. *)
  let serve (wal, db, engine) ops =
    let srv = mk_server ~durable:wal db (Server.Sequential engine) in
    let conns = Array.init 3 (fun _ -> connect srv) in
    let said =
      List.mapi
        (fun i f ->
          let resp, _ = rpc_ok ~ctx:"kill script" srv conns.(i mod 3) f in
          while Durable.writer_step wal <> None do () done;
          Option.value ~default:"" (Json.str_mem "result" resp))
        (List.concat (frames ops))
    in
    Server.stop srv;
    said
  in
  let dir = fresh_dir "kill" in
  let cfg = Durable.config ~fsync:Durable.Always ~snapshot_every:5 ~io:ignore dir in
  let ((wal, db, engine) as h) = Durable.create_engine cfg in
  let q ?dest name post head = Submit (rq ?dest name ~post:[ post ] ~head) in
  ignore
    (serve h
       (seed_ops
       @ [ q "qa" "b" "a"; q "qb" "a" "b"; Insert ("F", [ vi 600; vs "Oslo" ]);
           q ~dest:"Oslo" "qc" "d" "c"; Flush ]));
  let killed = observe db engine in
  let wal2, db2, engine2, report = Result.get_ok (Durable.recover cfg) in
  Alcotest.(check bool) "clean tail after kill" true
    (report.Durable.truncation = None);
  Alcotest.(check bool) "recovered from a snapshot and its tail" true
    (report.Durable.snapshot_loaded <> None);
  Alcotest.check obs_t "recovered state sits on the kill boundary" killed
    (observe db2 engine2);
  Alcotest.(check (list string)) "the restarted service fires the pair"
    [ "coordinated" ]
    (serve (wal2, db2, engine2) [ q ~dest:"Oslo" "qd" "c" "d" ]);
  Durable.close wal2;
  Durable.close wal;
  rm_rf dir

(* --------------- abnormal disconnects, SIGPIPE, EPIPE ------------- *)

let abnormal_count () =
  match Obs.Counter.find "server.abnormal_disconnects" with
  | Some c -> Obs.Counter.value c
  | None -> 0

(* A client dying mid-frame (partial length prefix on the wire, RST)
   must tear down that one session; a sibling session keeps being
   served by the same process. *)
let test_client_dies_mid_frame () =
  Obs.set_metrics true;
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server db (Server.Sequential engine) in
  let survivor = connect srv in
  seed_over_wire srv survivor;
  let before = abnormal_count () in
  (* Raw socket: half a length prefix, then an abrupt RST close. *)
  let victim = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect victim
    (Unix.ADDR_INET (Unix.inet_addr_of_string loopback, Server.port srv));
  ignore (Unix.write_substring victim "\x00\x00" 0 2);
  pump srv;
  Unix.setsockopt_optint victim Unix.SO_LINGER (Some 0);
  Unix.close victim;
  pump ~rounds:10 srv;
  Alcotest.(check bool)
    "mid-frame death recorded as abnormal" true
    (abnormal_count () > before);
  (* The survivor is unaffected. *)
  let resp, _ =
    rpc_ok ~ctx:"survivor" srv survivor
      (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "status") ])
  in
  Alcotest.(check bool)
    "survivor still served" true
    (Json.str_mem "result" resp = Some "status");
  Server.Client.close survivor;
  pump srv;
  Server.stop srv;
  Obs.set_metrics false

(* A subscribed client dying before its notification is delivered must
   surface as EPIPE/ECONNRESET on that session only: the submitting
   session still gets its response and the fired set is intact. *)
let test_subscriber_dies_before_notify () =
  Obs.set_metrics true;
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server db (Server.Sequential engine) in
  let submitter = connect srv in
  seed_over_wire srv submitter;
  let subscriber = connect srv in
  ignore
    (rpc_ok ~ctx:"subscribe" srv subscriber
       (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "subscribe") ]));
  let before = abnormal_count () in
  (* The subscriber dies abruptly; the server has not noticed yet. *)
  Server.Client.abort subscriber;
  ignore (rpc_ok ~ctx:"pend" srv submitter (submit ~id:2 q1));
  let resp, _ = rpc_ok ~ctx:"fire" srv submitter (submit ~id:3 q2) in
  Alcotest.(check bool)
    "pair fired despite the dead subscriber" true
    (Json.str_mem "result" resp = Some "coordinated");
  pump ~rounds:10 srv;
  Alcotest.(check bool)
    "dead subscriber torn down abnormally" true
    (abnormal_count () > before);
  Alcotest.(check int) "set retired" 2 (Online.total_coordinated engine);
  Server.Client.close submitter;
  pump srv;
  Server.stop srv;
  Obs.set_metrics false

(* A served request runs under the binding's evaluation budgets, each
   submit or flush with a fresh one.  With no probe allowed, the
   submit that would fire degrades instead: every subscriber, the
   submitter included, reads the degraded notification, the submitter
   before its response, and the response says so. *)
let test_degraded_request () =
  let serve ~max_probes =
    let db = Database.create () in
    let guard = Resilient.arm ~max_probes () in
    Database.set_guard db (Some guard);
    let engine = Online.create db in
    let srv = mk_server ~guard db (Server.Sequential engine) in
    let conn = connect srv in
    (* The schema and facts go in before the budget can bite: inserts
       do not evaluate. *)
    seed_over_wire srv conn;
    (db, engine, srv, conn)
  in
  let db, engine, srv, submitter = serve ~max_probes:0 in
  let subscriber = connect srv in
  List.iter
    (fun conn ->
      ignore
        (rpc_ok ~ctx:"subscribe" srv conn
           (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "subscribe") ])))
    [ submitter; subscriber ];
  ignore (rpc_ok ~ctx:"pend" srv submitter (submit ~id:2 q1));
  let resp, notifies = rpc_ok ~ctx:"degrade" srv submitter (submit ~id:3 q2) in
  let degraded_note =
    match notifies with
    | [ n ] ->
      Alcotest.(check (option string)) "notify kind" (Some "degraded")
        (Json.str_mem "notify" n);
      Alcotest.(check (option string)) "notify reason"
        (Some "probe budget exhausted") (Json.str_mem "reason" n);
      n
    | _ ->
      Alcotest.failf "submitter read %d notifications before its response"
        (List.length notifies)
  in
  Alcotest.(check (option string)) "still pending" (Some "pending")
    (Json.str_mem "result" resp);
  Alcotest.(check bool) "response marked degraded" true
    (Json.mem "degraded" resp = Some (Json.Bool true));
  let rec await tries =
    match Server.Client.try_recv subscriber with
    | Some n -> n
    | None when tries < 2000 ->
      ignore (Server.step ~timeout:0.01 srv);
      await (tries + 1)
    | None -> Alcotest.fail "subscriber got no notification"
  in
  Alcotest.(check string) "subscriber reads the same notification"
    (Json.to_string degraded_note)
    (Json.to_string (await 0));
  Alcotest.(check int) "nothing fired" 0 (Online.total_coordinated engine);
  Alcotest.(check int) "no probe ran" 0 (Database.probes db);
  List.iter Server.Client.close [ submitter; subscriber ];
  pump srv;
  Server.stop srv;
  (* Fresh budgets: one firing submit's probes suffice for every
     request, though the requests together probe more than that. *)
  let pairs =
    List.init 3 (fun i ->
        ( Printf.sprintf "qa%d: { R(H%d, y) } R(G%d, x) :- F(x, Zurich)." i i i,
          Printf.sprintf "qb%d: { R(G%d, y) } R(H%d, x) :- F(x, Zurich)." i i i ))
  in
  let db, _, srv, conn = serve ~max_probes:max_int in
  let per_request =
    List.concat_map
      (fun (a, b) ->
        List.map
          (fun q ->
            let before = Database.probes db in
            ignore (rpc_ok ~ctx:"unbounded" srv conn (submit ~id:4 q));
            Database.probes db - before)
          [ a; b ])
      pairs
  in
  let budget = List.fold_left max 0 per_request in
  let total = List.fold_left ( + ) 0 per_request in
  Alcotest.(check bool) "requests together probe past one budget" true
    (budget > 0 && total > budget);
  Server.Client.close conn;
  pump srv;
  Server.stop srv;
  let _, engine, srv, conn = serve ~max_probes:budget in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun q ->
          let resp, _ = rpc_ok ~ctx:"fresh budget" srv conn (submit ~id:5 q) in
          Alcotest.(check bool)
            (Printf.sprintf "budget %d per request: %s not degraded" budget q)
            true
            (Json.mem "degraded" resp = None))
        [ a; b ])
    pairs;
  Alcotest.(check int) "every pair fired" 6 (Online.total_coordinated engine);
  Server.Client.close conn;
  pump srv;
  Server.stop srv

(* ---------------------- protocol edge cases ----------------------- *)

let test_overloaded () =
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server ~max_pending:1 db (Server.Sequential engine) in
  let conn = connect srv in
  seed_over_wire srv conn;
  (* Two queries that cannot coordinate with each other. *)
  ignore (rpc_ok ~ctx:"first" srv conn (submit ~id:1 q1));
  let resp, _ =
    rpc ~ctx:"second" srv conn
      (submit ~id:2 "qb: { R(G3, y) } R(G2, x) :- F(x, Paris).")
  in
  Alcotest.(check bool)
    "typed overloaded refusal" true
    (Json.str_mem "error" resp = Some "overloaded");
  Alcotest.(check int) "pool stayed bounded" 1 (Online.pending_count engine);
  Server.Client.close conn;
  pump srv;
  Server.stop srv

let test_protocol_errors () =
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server db (Server.Sequential engine) in
  let conn = connect srv in
  let expect_error ctx req code =
    let resp, _ = rpc ~ctx srv conn req in
    Alcotest.(check (option string))
      ctx (Some code)
      (Json.str_mem "error" resp)
  in
  expect_error "unknown op"
    (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "dance") ])
    "bad_op";
  expect_error "missing op" (Json.Obj [ ("id", Json.Int 2) ]) "missing_op";
  expect_error "missing query"
    (Json.Obj [ ("id", Json.Int 3); ("op", Json.Str "submit") ])
    "missing_query";
  expect_error "syntax error"
    (Json.Obj
       [ ("id", Json.Int 4); ("op", Json.Str "submit");
         ("query", Json.Str "not a query") ])
    "syntax";
  expect_error "insert into missing table"
    (Json.Obj
       [ ("id", Json.Int 5); ("op", Json.Str "insert");
         ("rel", Json.Str "Nope"); ("tuple", Json.Arr [ Json.Int 1 ]) ])
    "no_table";
  expect_error "retire unknown id"
    (Json.Obj
       [ ("id", Json.Int 6); ("op", Json.Str "retire");
         ("pool_id", Json.Int 42) ])
    "not_found";
  (* After every error the session is still alive. *)
  let resp, _ =
    rpc_ok ~ctx:"still alive" srv conn
      (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "status") ])
  in
  Alcotest.(check bool)
    "session survived the errors" true
    (Json.str_mem "result" resp = Some "status");
  Server.Client.close conn;
  pump srv;
  Server.stop srv

(* ----------------- one-frame crash regressions --------------------- *)

(* Each of these single frames once raised out of [Server.step], which
   killed the process and every session with it.  Each must now get a
   typed error frame.  They are written as raw payload bytes, because a
   well-behaved JSON printer would never produce the bad escapes. *)
let killer_frames =
  [
    ({|{"id":1,"op":"insert","rel":"G","tuple":[1,2,3]}|}, "bad_arity");
    ({|{"id":2,"op":"\uzzzz"}|}, "bad_json");
    ({|{"id":3,"op":"st\u_061tus"}|}, "bad_json");
    ({|{"id":4,"op":"create_table","name":"G","attrs":["a","b"]}|},
     "table_exists");
    ({|{"id":5,"op":"create_table","name":"H","attrs":[]}|}, "bad_schema");
    ({|{"id":6,"op":"create_table","name":"H","attrs":["a","a"]}|},
     "bad_schema");
    ({|{"id":7,"op":"create_table","name":"","attrs":["a"]}|}, "bad_schema");
    ({|{"id":8,"op":"\ud83d"}|}, "bad_json");
    ({|{"id":9,"op":"\ude00"}|}, "bad_json");
    ({|{"id":10,"op":"\ud83d\u0041"}|}, "bad_json");
    ({|{"id":11,"op":"submit","query":"q: { } R(99999999999999999999)."}|},
     "syntax");
    ({|{"id":12,"op":"submit","query":"q: { } R(x) :- Missing(x)."}|},
     "no_table");
    ({|{"id":13,"op":"submit","query":"q: { } R(x) :- F(x)."}|}, "bad_arity");
  ]

(* A bare socket speaking the frame protocol with raw payload bytes,
   one request and one response at a time (no subscription). *)
let raw_connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string loopback, Server.port srv));
  fd

(* A frame as it goes on the wire: a 4-byte big-endian length, then
   the payload bytes. *)
let raw_frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

(* Send one raw payload and step the server until a whole response
   frame is back: its bytes, length prefix included. *)
let raw_exchange ~ctx srv fd payload =
  let frame = raw_frame payload in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  let inb = Buffer.create 64 and chunk = Bytes.create 4096 in
  let rec go tries =
    let got = Buffer.contents inb in
    let len = String.length got in
    if len >= 4 && len >= 4 + Int32.to_int (String.get_int32_be got 0) then got
    else if tries > 2000 then Alcotest.failf "%s: no response" ctx
    else begin
      ignore (Server.step ~timeout:0.01 srv);
      (match Unix.select [ fd ] [] [] 0.0 with
      | [], _, _ -> ()
      | _ -> Buffer.add_subbytes inb chunk 0 (Unix.read fd chunk 0 4096));
      go (tries + 1)
    end
  in
  go 0

let raw_rpc ~ctx srv fd payload =
  let got = raw_exchange ~ctx srv fd payload in
  match Json.parse (String.sub got 4 (String.length got - 4)) with
  | Ok j -> j
  | Error why -> Alcotest.failf "%s: unparsable response: %s" ctx why

let test_killer_frames () =
  let db = Database.create () in
  let srv = mk_server db (Server.Sequential (Online.create db)) in
  let bystander = connect srv in
  seed_over_wire srv bystander;
  let fd = raw_connect srv in
  let status = {|{"op":"status"}|} in
  ignore
    (raw_rpc ~ctx:"create G" srv fd
       {|{"op":"create_table","name":"G","attrs":["a","b"]}|});
  List.iter
    (fun (payload, code) ->
      let resp = raw_rpc ~ctx:payload srv fd payload in
      Alcotest.(check (option string))
        payload (Some code) (Json.str_mem "error" resp);
      (* The same session, and every other session, is still served. *)
      Alcotest.(check (option string))
        (payload ^ ": same session served") (Some "status")
        (Json.str_mem "result" (raw_rpc ~ctx:payload srv fd status));
      let resp, _ =
        rpc_ok ~ctx:payload srv bystander
          (Json.Obj [ ("op", Json.Str "status") ])
      in
      Alcotest.(check (option string))
        (payload ^ ": other session served") (Some "status")
        (Json.str_mem "result" resp))
    killer_frames;
  Alcotest.(check (list string))
    "no refused table was created" [ "F"; "G" ]
    (List.sort compare (List.map Relation.name (Database.relations db)));
  Alcotest.(check int) "refused insert stored nothing" 0
    (Relation.cardinal (Database.relation db "G"));
  (* Well-formed work still flows across both sessions. *)
  ignore
    (raw_rpc ~ctx:"submit qa" srv fd
       {|{"op":"submit","query":"qa: { R(G1, y) } R(G0, x) :- F(x, Zurich)."}|});
  let resp, _ = rpc_ok ~ctx:"submit qb" srv bystander (submit q2) in
  Alcotest.(check (option string))
    "pair coordinates across the sessions" (Some "coordinated")
    (Json.str_mem "result" resp);
  Unix.close fd;
  Server.Client.close bystander;
  pump srv;
  Server.stop srv

(* A bare listening socket plays a broken server: [f conn fd] runs
   with the client's connection and the accepted peer socket. *)
let with_bare_peer f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let conn = Server.Client.connect (Server.Tcp (loopback, port)) in
  let fd, _ = Unix.accept lfd in
  Fun.protect
    ~finally:(fun () ->
      Server.Client.close conn;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.close lfd)
    (fun () -> f conn fd)

(* The client must raise [Bad_frame] on a bad length prefix and on a
   well-framed non-JSON payload: never [Invalid_argument], never a
   timeout while a valid frame sits in its buffer. *)
let test_client_bad_frames () =
  let expect_bad_frame ~ctx bytes ~after =
    with_bare_peer (fun conn fd ->
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
        (match Server.Client.recv ~timeout:2.0 conn with
        | exception Server.Client.Bad_frame _ -> ()
        | Some j -> Alcotest.failf "%s: decoded %s" ctx (Json.to_string j)
        | None -> Alcotest.failf "%s: timed out" ctx);
        after conn)
  in
  expect_bad_frame ~ctx:"negative length" "\xff\xff\xff\xfb" ~after:ignore;
  expect_bad_frame ~ctx:"oversized length" "\x7f\xff\xff\xff" ~after:ignore;
  expect_bad_frame ~ctx:"non-JSON payload"
    (raw_frame "not json" ^ raw_frame {|{"ok":true}|})
    ~after:(fun conn ->
      Alcotest.(check (option string))
        "the frame after it is still read" (Some {|{"ok":true}|})
        (Option.map Json.to_string (Server.Client.recv ~timeout:2.0 conn)))

(* A peer that reads one request and closes: the client's next read
   raises [Closed] at once instead of waiting out its timeout, and with
   SIGPIPE ignored (as [entangle client] runs) further requests raise
   [Closed] too instead of killing the process. *)
let test_client_peer_closes () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_bare_peer (fun conn fd ->
      let req = Json.Obj [ ("op", Json.Str "status") ] in
      Server.Client.send conn req;
      let frame = raw_frame (Json.to_string req) in
      let got = Bytes.create (String.length frame) in
      let rec read_all off =
        if off < Bytes.length got then
          read_all (off + Unix.read fd got off (Bytes.length got - off))
      in
      read_all 0;
      Unix.close fd;
      let t0 = Unix.gettimeofday () in
      (match Server.Client.recv ~timeout:5.0 conn with
      | exception Server.Client.Closed -> ()
      | Some j -> Alcotest.failf "decoded %s" (Json.to_string j)
      | None -> Alcotest.fail "EOF read as a timeout");
      Alcotest.(check bool) "EOF is reported at once" true
        (Unix.gettimeofday () -. t0 < 2.0);
      let rec send_until_closed n =
        if n = 0 then Alcotest.fail "writes to a closed peer kept succeeding"
        else
          match Server.Client.send conn req with
          | () -> send_until_closed (n - 1)
          | exception Server.Client.Closed -> ()
      in
      send_until_closed 100)

let incidents () =
  Option.fold ~none:0 ~some:Obs.Counter.value
    (Obs.Counter.find "flight.incidents")

(* The state a restart would recover: recover a copy of the WAL
   directory, as if the process had died now. *)
let recovered_state dir =
  let copy = fresh_dir "recovered" in
  copy_dir dir copy;
  match Durable.recover (Durable.config copy) with
  | Error why -> Alcotest.failf "recover: %s" why
  | Ok (t, rdb, reng, _) ->
    let st = observe rdb reng in
    Durable.close t;
    rm_rf copy;
    st

exception Injected

(* A durable server with two seeded sessions and the flight recorder
   armed, for the failure tests below. *)
let with_durable_server ?io tag f =
  Obs.set_metrics true;
  Obs.Flight_recorder.arm ();
  let dir = fresh_dir tag in
  let wal, db, engine = Durable.create_engine (Durable.config ?io dir) in
  let srv = mk_server ~durable:wal db (Server.Sequential engine) in
  let conn = connect srv and bystander = connect srv in
  seed_over_wire srv conn;
  f dir db engine srv conn bystander;
  List.iter Server.Client.close [ conn; bystander ];
  Server.stop srv;
  Durable.close wal;
  Obs.Flight_recorder.disarm ();
  Obs.set_metrics false;
  rm_rf dir

(* The last-resort handler: a request failing with an exception the
   protocol has no code for answers [internal_error] with the request
   id and records a flight-recorder incident, while the same session
   and its neighbours keep being served.  The fault is a trace sink
   that raises once the submit has completed and been journaled, so
   the engine and the WAL still agree: recovering the WAL gives the
   live state. *)
let test_internal_error () =
  with_durable_server "internal" @@ fun dir db engine srv conn bystander ->
  let faulty =
    Obs.jsonl_sink (fun line ->
        match Json.parse line with
        | Ok v
          when Json.str_mem "name" v = Some "online.submit"
               && Option.bind (Json.mem "args" v) (Json.str_mem "query")
                  = Some "boom" ->
          raise Injected
        | _ -> ())
  in
  let before = incidents () in
  Obs.install faulty;
  let resp, _ =
    rpc srv conn (submit ~id:9 "boom: { R(Nobody, y) } R(Boom, x) :- F(x, Zurich).")
  in
  Obs.remove faulty;
  Alcotest.(check string) "typed internal_error frame"
    {|{"id":9,"ok":false,"error":"internal_error"}|} (Json.to_string resp);
  Alcotest.(check int) "one incident recorded" (before + 1) (incidents ());
  List.iter
    (fun c ->
      ignore
        (rpc_ok ~ctx:"served after internal_error" srv c
           (Json.Obj [ ("op", Json.Str "status") ])))
    [ conn; bystander ];
  Alcotest.check obs_t "the WAL holds the live state" (observe db engine)
    (recovered_state dir)

(* A pipelined restock as perfbench's market sends it: 32 inserts and a
   flush in one write. *)
let restock_bytes () =
  String.concat ""
    (List.init 32 (fun i ->
         raw_frame
           (Printf.sprintf
              {|{"id":%d,"op":"insert","rel":"F","tuple":[%d,"Oslo"]}|} i
              (500 + i)))
    @ [ raw_frame {|{"id":32,"op":"flush"}|} ])

let send_raw fd data =
  ignore (Unix.write_substring fd data 0 (String.length data) : int)

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

let wal_writes () =
  Option.fold ~none:0 ~some:Obs.Histogram.count
    (Obs.Histogram.find "wal.append_ns")

let wal_groups () =
  Option.fold ~none:0 ~some:Obs.Counter.value (Obs.Counter.find "wal.groups")

(* Group commit per step: the restock's 33 groups (the flush fires a
   pair waiting for an Oslo flight) are committed one by one but
   written in one append, and a response leaves only after it: when the
   first one can be read, the segment already holds all 33, so a
   restart recovers the live state. *)
let test_group_commit_per_step () =
  with_durable_server "batch" @@ fun dir db engine srv conn _ ->
  List.iter
    (fun q ->
      ignore
        (rpc_ok ~ctx:"waiting pair" srv conn (submit q)))
    [
      "qa: { R(G1, y) } R(G0, x) :- F(x, Oslo).";
      "qb: { R(G0, y) } R(G1, x) :- F(x, Oslo).";
    ];
  let fd = raw_connect srv in
  let groups0 = wal_groups () and writes0 = wal_writes () in
  send_raw fd (restock_bytes ());
  let rec go tries =
    if tries > 200 then Alcotest.fail "no response to the restock"
    else if not (readable fd) then begin
      ignore (Server.step ~timeout:0.01 srv);
      go (tries + 1)
    end
  in
  go 0;
  Alcotest.(check int) "33 groups committed" 33 (wal_groups () - groups0);
  Alcotest.(check int) "one segment write" 1 (wal_writes () - writes0);
  Alcotest.check obs_t "the segment holds every group of the batch"
    (observe db engine) (recovered_state dir);
  Alcotest.(check int) "the flush fired the pair" 2
    (Online.total_coordinated engine);
  Unix.close fd

(* A WAL write failure is fail-stop, not an [internal_error]: [step]
   raises [Durable.Wal_failed] and no request of the failed write gets
   a response — a single insert, or each frame of a pipelined batch.
   The handle stays failed, so no later mutating request — from any
   session, after the fault itself has cleared — is answered either,
   and the WAL still recovers to the state before the failed write. *)
let test_wal_failure_stops () =
  let scenario tag ctx send_first =
    let eio = ref false in
    let io call =
      if !eio && call = Durable.Append then
        raise (Unix.Unix_error (Unix.EIO, "write", ""))
    in
    with_durable_server ~io tag @@ fun dir db engine srv conn bystander ->
    let fd = raw_connect srv in
    let last_good = observe db engine in
    let expect_stop ctx send =
      send ();
      let rec go tries =
        if tries > 200 then Alcotest.failf "%s: the server kept running" ctx
        else
          match Server.step ~timeout:0.01 srv with
          | _ -> go (tries + 1)
          | exception Durable.Wal_failed _ -> ()
      in
      go 0;
      pump srv;
      List.iter
        (fun c ->
          Option.iter
            (fun fr -> Alcotest.failf "%s: answered %s" ctx (Json.to_string fr))
            (Server.Client.try_recv c))
        [ conn; bystander ];
      if readable fd then Alcotest.failf "%s: answered the raw session" ctx
    in
    let before = incidents () in
    eio := true;
    expect_stop ctx (fun () -> send_first conn fd);
    eio := false;
    Alcotest.(check int) "one incident recorded" (before + 1) (incidents ());
    expect_stop "submit after the fault cleared" (fun () ->
        Server.Client.send bystander (submit "qa: { } R(A, x) :- F(x, Zurich)."));
    expect_stop "create_table after the fault cleared" (fun () ->
        Server.Client.send conn
          (Json.Obj
             [ ("op", Json.Str "create_table"); ("name", Json.Str "G");
               ("attrs", Json.Arr [ Json.Str "a" ]) ]));
    Alcotest.check obs_t "the WAL recovers the state before the failure"
      last_good (recovered_state dir);
    Unix.close fd
  in
  scenario "walfail" "insert under EIO" (fun conn _ ->
      Server.Client.send conn
        (Json.Obj
           [ ("op", Json.Str "insert"); ("rel", Json.Str "F");
             ("tuple", Json.Arr [ Json.Int 300; Json.Str "Oslo" ]) ]));
  scenario "walfail-batch" "pipelined restock under EIO" (fun _ fd ->
      send_raw fd (restock_bytes ()))

(* A \u-escaped surrogate pair decodes to the same UTF-8 bytes as the
   raw character, so a constant spelled escaped in one request and raw
   in another is one value: the pair unifies and coordinates. *)
let test_escaped_constant_coordinates () =
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server db (Server.Sequential engine) in
  let conn = connect srv in
  seed_over_wire srv conn;
  let fd = raw_connect srv in
  let escaped =
    raw_rpc ~ctx:"escaped" srv fd
      {|{"op":"submit","query":"qa: { R('\ud83d\ude00', y) } R(G0, x) :- F(x, Zurich)."}|}
  in
  Alcotest.(check (option string))
    "escaped side pends" (Some "pending")
    (Json.str_mem "result" escaped);
  let raw =
    raw_rpc ~ctx:"raw" srv fd
      "{\"op\":\"submit\",\"query\":\"qb: { R(G0, y) } \
       R('\xf0\x9f\x98\x80', x) :- F(x, Zurich).\"}"
  in
  Alcotest.(check (option string))
    "raw side coordinates with the escaped one" (Some "coordinated")
    (Json.str_mem "result" raw);
  Unix.close fd;
  Server.Client.close conn;
  pump srv;
  Server.stop srv

let test_json_roundtrip () =
  let cases =
    [
      {|null|};
      {|true|};
      {|[1,-2,3.5,"a\nb",{},[]]|};
      {|{"id":1,"op":"submit","q":"x \"quoted\" \\ done","n":null}|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error why -> Alcotest.failf "parse %s: %s" s why
      | Ok v -> (
        match Json.parse (Json.to_string v) with
        | Ok v' ->
          Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')
        | Error why -> Alcotest.failf "reparse %s: %s" s why))
    cases;
  (match Json.parse "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  (match Json.parse {|{"a":1} trailing|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must not parse");
  (match Json.parse {|"\u00e9\u0041"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "hex escapes decode" "\xc3\xa9A" s
  | _ -> Alcotest.fail "valid \\u escapes must parse");
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "surrogate pair is one 4-byte code point"
      "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "a surrogate pair must parse"

(* Step the server and read [fd] until [n] whole response frames are
   in: their bytes, length prefixes included. *)
let collect ~ctx srv fd n =
  let inb = Buffer.create 256 and chunk = Bytes.create 4096 in
  (* Whether [got] holds [n - k] more whole frames from [off] on. *)
  let rec whole got off k =
    k = n
    || off + 4 <= String.length got
       &&
       let next = off + 4 + Int32.to_int (String.get_int32_be got off) in
       next <= String.length got && whole got next (k + 1)
  in
  let rec go tries =
    let got = Buffer.contents inb in
    if whole got 0 0 then got
    else if tries > 20_000 then Alcotest.failf "%s: %d responses not back" ctx n
    else begin
      ignore (Server.step ~timeout:0.0 srv);
      (match Unix.select [ fd ] [] [] 0.001 with
      | [], _, _ -> ()
      | _ -> Buffer.add_subbytes inb chunk 0 (Unix.read fd chunk 0 4096));
      go (tries + 1)
    end
  in
  go 0

(* Requests whose responses depend on the request alone: refusals of
   every kind and a non-JSON payload. *)
let stateless_payloads =
  [
    {|{"id":1,"op":"nope"}|};
    {|{"id":2,"op":"retire","pool_id":-1}|};
    {|{"id":3,"op":"submit","query":"b: { } broken"}|};
    {|not json|};
    {|{"id":4,"op":"insert","rel":"Nope","tuple":[1,"é"]}|};
    {|{"id":6,"op":"create_table","name":"","attrs":["a"]}|};
  ]

(* An unknown op of 70,000 bytes, echoed back: the frame outgrows a
   session's first buffer in each direction (16 KiB in, 4 KiB out) and
   past the 64 KiB after which an emptied buffer shrinks back. *)
let huge_payload = Printf.sprintf {|{"id":5,"op":"%s"}|} (String.make 70_000 'x')

(* Pipelined frames arrive however the stream is cut: split at every
   byte boundary (inside a length prefix too), all in one write, and in
   chunks of several sizes, including cuts through a frame that spans
   the middle of a session's 16 KiB inbound buffer, past which consumed
   bytes are compacted away.  Each session's response bytes equal
   those of delivering one frame per write. *)
let test_split_delivery () =
  let dir = fresh_dir "split" in
  let path = Filename.concat dir "s.sock" in
  let db = Database.create () in
  let srv =
    Server.create
      (Server.default_config (Server.Unix_socket path))
      { Server.db; engine = Server.Sequential (Online.create db);
        durable = None; guard = None }
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let reference payloads =
    let fd = connect () in
    let out =
      String.concat ""
        (List.map
           (fun p ->
             send_raw fd (raw_frame p);
             collect ~ctx:p srv fd 1)
           payloads)
    in
    Unix.close fd;
    out
  in
  let deliver ~ctx payloads cuts =
    let stream = String.concat "" (List.map raw_frame payloads) in
    let fd = connect () in
    let rec go off = function
      | [] -> send_raw fd (String.sub stream off (String.length stream - off))
      | cut :: rest ->
        send_raw fd (String.sub stream off (cut - off));
        for _ = 1 to 2 do
          ignore (Server.step ~timeout:0.0 srv)
        done;
        go cut rest
    in
    go 0 cuts;
    let got = collect ~ctx srv fd (List.length payloads) in
    Unix.close fd;
    got
  in
  let check ~ctx ~want payloads cuts =
    Alcotest.(check string) ctx want (deliver ~ctx payloads cuts)
  in
  (* The huge frame is answered in full, not with an internal error. *)
  (let got = reference [ huge_payload ] in
   match Json.parse (String.sub got 4 (String.length got - 4)) with
   | Ok resp ->
     Alcotest.(check (option string)) "huge op refused" (Some "bad_op")
       (Json.str_mem "error" resp);
     Alcotest.(check (option int)) "huge op echoed whole" (Some 70_000)
       (Option.map String.length (Json.str_mem "op" resp))
   | Error why -> Alcotest.failf "huge response: %s" why);
  (* Every two-way cut of a short pipelined stream. *)
  let short = [ List.nth stateless_payloads 0; List.nth stateless_payloads 2 ] in
  let want = reference short in
  let len = String.length (String.concat "" (List.map raw_frame short)) in
  for cut = 0 to len do
    check ~ctx:(Printf.sprintf "cut at byte %d" cut) ~want short [ cut ]
  done;
  (* Many frames in one read. *)
  let many =
    List.init 60 (fun i -> List.nth stateless_payloads (i mod 3))
  in
  check ~ctx:"60 frames in one write" ~want:(reference many) many [];
  (* A long stream in fixed-size chunks: frames cross byte 8,192 (half
     the first inbound buffer), and the huge frame forces growth, then
     a shrink once it is consumed, with frames still behind it. *)
  let long =
    List.concat (List.init 60 (fun _ -> stateless_payloads))
    @ (huge_payload :: stateless_payloads)
  in
  let want = reference long in
  let total = String.length (String.concat "" (List.map raw_frame long)) in
  List.iter
    (fun chunk ->
      check
        ~ctx:(Printf.sprintf "chunks of %d bytes" chunk)
        ~want long
        (List.init ((total - 1) / chunk) (fun k -> (k + 1) * chunk)))
    [ 61; 1000; 8193; 16384 ];
  (* Cuts around the compaction point: the frames before byte 8,192 are
     consumed, and the frame that spans it is still arriving. *)
  let small = List.init 400 (fun i -> List.nth stateless_payloads (i mod 3)) in
  let want = reference small in
  for cut = 8150 to 8250 do
    check ~ctx:(Printf.sprintf "compaction cut at byte %d" cut) ~want small [ cut ]
  done;
  pump srv;
  Server.stop srv;
  rm_rf dir

(* A pipelined stream longer than one session read (16 KiB) over
   loopback TCP: the server reads it in two steps, so its responses
   leave in two writes while the client sends nothing.  With Nagle on,
   the second write waits for the client's delayed ACK of the first
   (about 40 ms); the server sets TCP_NODELAY on every accepted TCP
   session, which makes a delivery take well under a millisecond.  The
   bound sits far from both. *)
let test_tcp_split_delivery () =
  let db = Database.create () in
  let srv = mk_server db (Server.Sequential (Online.create db)) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let frames = List.init 600 (fun i -> List.nth stateless_payloads (i mod 3)) in
  let stream = String.concat "" (List.map raw_frame frames) in
  let times =
    List.init 9 (fun i ->
        let t0 = Unix.gettimeofday () in
        send_raw fd stream;
        ignore
          (collect ~ctx:(Printf.sprintf "tcp delivery %d" i) srv fd
             (List.length frames));
        Unix.gettimeofday () -. t0)
  in
  Unix.close fd;
  let median = List.nth (List.sort compare times) (List.length times / 2) in
  if median > 0.008 then
    Alcotest.failf "median delivery over TCP took %.1f ms (bound 8 ms)"
      (median *. 1e3);
  pump srv;
  Server.stop srv

(* A session's end and a new connection ready in the same round:
   [step] reads before it accepts, so the end is logged first, the
   order the verbose log in test/cli.t/run.t shows.  Over a Unix socket
   both are ready once [close] and [connect] return. *)
let test_end_before_accept () =
  let dir = fresh_dir "order" in
  let path = Filename.concat dir "s.sock" in
  let db = Database.create () in
  let srv =
    Server.create
      (Server.default_config (Server.Unix_socket path))
      { Server.db; engine = Server.Sequential (Online.create db);
        durable = None; guard = None }
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let first = connect () in
  ignore (Server.step ~timeout:1.0 srv);
  Unix.close first;
  let second = connect () in
  let names = ref [] in
  let sink =
    Obs.jsonl_sink (fun line ->
        match Result.map (Json.str_mem "name") (Json.parse line) with
        | Ok (Some n) when String.starts_with ~prefix:"server.session" n ->
          names := n :: !names
        | _ -> ())
  in
  Obs.with_sink sink (fun () -> ignore (Server.step ~timeout:1.0 srv));
  Alcotest.(check (list string)) "session 1 ends, then session 2 opens"
    [ "server.session_close"; "server.session_open" ]
    (List.rev !names);
  Unix.close second;
  Server.stop srv;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "json frames round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case
      "differential: kill + restart over --wal converges" `Quick
      test_kill_and_restart;
    Alcotest.test_case "client dying mid-frame only kills its session"
      `Quick test_client_dies_mid_frame;
    Alcotest.test_case "subscriber dying before notify is a session event"
      `Quick test_subscriber_dies_before_notify;
    Alcotest.test_case "a request past its budget is answered degraded"
      `Quick test_degraded_request;
    Alcotest.test_case "admission control returns typed overloaded" `Quick
      test_overloaded;
    Alcotest.test_case "protocol errors keep the session alive" `Quick
      test_protocol_errors;
    Alcotest.test_case "one-frame crashes become typed error frames" `Quick
      test_killer_frames;
    Alcotest.test_case "client: bad frames raise Bad_frame" `Quick
      test_client_bad_frames;
    Alcotest.test_case "client: a peer that closes raises Closed" `Quick
      test_client_peer_closes;
    Alcotest.test_case "an unknown exception is an internal_error frame"
      `Quick test_internal_error;
    Alcotest.test_case "a pipelined batch is one WAL write" `Quick
      test_group_commit_per_step;
    Alcotest.test_case "a WAL write failure stops the server" `Quick
      test_wal_failure_stops;
    Alcotest.test_case "escaped and raw spellings of a constant coordinate"
      `Quick test_escaped_constant_coordinates;
    Alcotest.test_case "pipelined frames split anywhere answer as one per write"
      `Quick test_split_delivery;
    Alcotest.test_case "a stream read in two steps over TCP is not held by Nagle"
      `Quick test_tcp_split_delivery;
    Alcotest.test_case "a session's end is read before a new one is accepted"
      `Quick test_end_before_accept;
  ]
