(* The service layer's differential proof.

   A server multiplexing N interleaved scripted clients must leave its
   engine in EXACTLY the state a sequential reference engine reaches
   when the same operation sequence is applied directly — pool (ids and
   names), component partition, satisfied count, next id and store
   contents.  The server is a single-threaded select loop with a public
   [step], so the tests drive server and in-process clients from one
   thread: send a frame, pump [step] until the response arrives, apply
   the same op to the reference, compare.  The same discipline covers a
   mid-stream server kill + restart over a WAL (stop without
   Durable.close, recover, continue over fresh sockets — the recovered
   service must converge to the reference) and abnormal disconnects (a
   client dying mid-frame or mid-notification must tear down exactly
   one session while every other session keeps being served). *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online

(* ------------------------ server plumbing ------------------------- *)

let loopback = "127.0.0.1"

let mk_server ?(max_pending = 1024) ?(max_sessions = 0) ?guard ?durable db
    engine =
  let cfg =
    {
      (Server.default_config (Server.Tcp (loopback, 0))) with
      Server.max_pending;
      max_sessions;
    }
  in
  Server.create cfg { Server.db; engine; durable; guard }

let connect srv = Server.Client.connect (Server.Tcp (loopback, Server.port srv))

(* Pump the server until [conn] yields the echoed (non-notify)
   response; notifications read along the way are returned too. *)
let rpc ?(ctx = "") srv conn req =
  Server.Client.send conn req;
  let rec go tries notifies =
    if tries > 2000 then Alcotest.failf "%s: no response after %d steps" ctx tries
    else
      match Server.Client.try_recv conn with
      | Some frame ->
        if Json.str_mem "notify" frame <> None then
          go tries (frame :: notifies)
        else (frame, List.rev notifies)
      | None ->
        ignore (Server.step ~timeout:0.01 srv);
        go (tries + 1) notifies
  in
  go 0 []

let rpc_ok ?ctx srv conn req =
  let resp, notifies = rpc ?ctx srv conn req in
  (match Json.mem "ok" resp with
  | Some (Json.Bool true) -> ()
  | _ ->
    Alcotest.failf "%s: request failed: %s"
      (Option.value ~default:"" ctx)
      (Json.to_string resp));
  (resp, notifies)

(* Pump until the client observes its own teardown or the data is
   drained; used after clean closes so sweep runs. *)
let pump ?(rounds = 5) srv =
  for _ = 1 to rounds do
    ignore (Server.step ~timeout:0.01 srv)
  done

(* --------------------------- scripted ops ------------------------- *)

let req_of_op id = function
  | Submit q ->
    Json.Obj
      [ ("id", Json.Int id); ("op", Json.Str "submit");
        ("query", Json.Str (Parser.query_to_string q)) ]
  | Flush -> Json.Obj [ ("id", Json.Int id); ("op", Json.Str "flush") ]
  | Insert (fid, dest) ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("op", Json.Str "insert");
        ("rel", Json.Str "F");
        ("tuple", Json.Arr [ Json.Int fid; Json.Str dest ]);
      ]

(* Apply one op to the reference; returns the sets it fired. *)
let apply_ref rdb rengine = function
  | Submit q -> (
    (* The reference submits what the server parses off the wire. *)
    match
      Online.submit rengine (Parser.parse_query (Parser.query_to_string q))
    with
    | Online.Coordinated c -> [ c ]
    | Online.Pending | Online.Rejected_unsafe _ -> [])
  | Flush -> Online.flush rengine
  | Insert (fid, dest) ->
    Database.insert rdb "F" [ vi fid; vs dest ];
    []

(* The sets a submit or flush response reports fired, by member name. *)
let fired_in_response resp =
  let names = function
    | Json.Arr qs ->
      List.filter_map (function Json.Str n -> Some n | _ -> None) qs
    | _ -> []
  in
  match (Json.mem "queries" resp, Json.mem "sets" resp) with
  | Some qs, _ -> [ names qs ]
  | None, Some (Json.Arr sets) -> List.map names sets
  | None, _ -> []

(* Seed the schema over the wire on the server side (journaled when a
   WAL is attached) and directly on the reference side. *)
let seed_over_wire srv conn =
  ignore
    (rpc_ok ~ctx:"seed table" srv conn
       (Json.Obj
          [
            ("op", Json.Str "create_table");
            ("name", Json.Str "F");
            ("attrs", Json.Arr [ Json.Str "fid"; Json.Str "dest" ]);
          ]));
  List.iter
    (fun (f, d) ->
      ignore
        (rpc_ok ~ctx:"seed fact" srv conn
           (Json.Obj
              [
                ("op", Json.Str "insert");
                ("rel", Json.Str "F");
                ("tuple", Json.Arr [ Json.Int f; Json.Str d ]);
              ])))
    seed_facts

let seed_reference rdb =
  ignore (Database.create_table' rdb "F" [ "fid"; "dest" ]);
  List.iter
    (fun (f, d) -> Database.insert rdb "F" [ vi f; vs d ])
    seed_facts

let mk_reference ~consume () =
  let rdb = Database.create () in
  let rengine = Online.create ~consume rdb in
  seed_reference rdb;
  (rdb, rengine)

(* ------------------ differential: interleaved clients ------------- *)

let run_differential ~seed ~nclients ~consume () =
  let ctx = Printf.sprintf "diff-%d-%b" nclients consume in
  let db = Database.create () in
  let engine = Online.create ~consume db in
  let srv = mk_server db (Server.Sequential engine) in
  let conns = Array.init nclients (fun _ -> connect srv) in
  let rdb, rengine = mk_reference ~consume () in
  (* Every tuple ever inserted: the store a consume-mode fire used. *)
  let shadow =
    if consume then begin
      let d = Database.create () in
      seed_reference d;
      d
    end
    else rdb
  in
  seed_over_wire srv conns.(0);
  let trace = gen_trace (Prng.create seed) 40 in
  List.iteri
    (fun i op ->
      let conn = conns.(i mod nclients) in
      let op_ctx = Printf.sprintf "%s op %d" ctx i in
      let resp, _ = rpc ~ctx:op_ctx srv conn (req_of_op i op) in
      (match Json.mem "ok" resp with
      | Some (Json.Bool _) -> ()
      | _ -> Alcotest.failf "%s: malformed response" op_ctx);
      let fired = apply_ref rdb rengine op in
      (match op with
      | Insert (fid, dest) when consume ->
        Database.insert shadow "F" [ vi fid; vs dest ]
      | Submit _ | Flush | Insert _ -> ());
      (* The served sets are the reference's, and each one meets
         Definition 1. *)
      Alcotest.(check (list (list string)))
        (op_ctx ^ ": fired sets")
        (List.map fired_names fired)
        (fired_in_response resp);
      List.iter (check_fired ~ctx:op_ctx shadow) fired;
      if i mod 10 = 0 then
        Alcotest.check obs_t
          (Printf.sprintf "%s after op %d" ctx i)
          (observe rdb rengine) (observe db engine))
    trace;
  Alcotest.check obs_t (ctx ^ ": final state") (observe rdb rengine)
    (observe db engine);
  Array.iter Server.Client.close conns;
  pump srv;
  Server.stop srv

let test_differential () =
  run_differential ~seed:chaos_seed ~nclients:4 ~consume:false ();
  run_differential ~seed:chaos_seed ~nclients:3 ~consume:true ()

(* ------------- differential: kill the server mid-stream ----------- *)

let test_kill_and_restart () =
  let dir = fresh_dir "kill" in
  let wal, db, engine =
    Durable.create_engine
      (Durable.config ~fsync:Durable.Always ~snapshot_every:5 dir)
  in
  let srv = mk_server ~durable:wal db (Server.Sequential engine) in
  let nclients = 3 in
  let conns = Array.init nclients (fun _ -> connect srv) in
  let rdb, rengine = mk_reference ~consume:false () in
  seed_over_wire srv conns.(0);
  let trace = gen_trace (Prng.create chaos_seed) 30 in
  let first, rest =
    (List.filteri (fun i _ -> i < 15) trace, List.filteri (fun i _ -> i >= 15) trace)
  in
  List.iteri
    (fun i op ->
      ignore
        (rpc ~ctx:(Printf.sprintf "kill op %d" i) srv
           conns.(i mod nclients) (req_of_op i op));
      ignore (apply_ref rdb rengine op))
    first;
  (* Kill: sockets die, the WAL handle is NOT cleanly closed — the
     crash discipline the durable suite establishes, now driven from
     the socket side. *)
  Server.stop srv;
  let wal2, db2, engine2, report =
    match Durable.recover (Durable.config dir) with
    | Ok r -> r
    | Error m -> Alcotest.failf "kill-restart: recover failed: %s" m
  in
  Alcotest.(check bool)
    "clean tail after kill" true
    (report.Durable.truncation = None);
  Alcotest.check obs_t "recovered state sits on the kill boundary"
    (observe rdb rengine) (observe db2 engine2);
  let srv2 = mk_server ~durable:wal2 db2 (Server.Sequential engine2) in
  let conns2 = Array.init nclients (fun _ -> connect srv2) in
  List.iteri
    (fun i op ->
      ignore
        (rpc ~ctx:(Printf.sprintf "restart op %d" i) srv2
           conns2.(i mod nclients) (req_of_op (100 + i) op));
      ignore (apply_ref rdb rengine op))
    rest;
  Alcotest.check obs_t "restarted service converges to the reference"
    (observe rdb rengine) (observe db2 engine2);
  Array.iter Server.Client.close conns2;
  pump srv2;
  Server.stop srv2;
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
  let q1 = "qa: { R(G1, y) } R(G0, x) :- F(x, Zurich)." in
  let q2 = "qb: { R(G0, y) } R(G1, x) :- F(x, Zurich)." in
  ignore
    (rpc_ok ~ctx:"pend" srv submitter
       (Json.Obj
          [ ("id", Json.Int 2); ("op", Json.Str "submit");
            ("query", Json.Str q1) ]));
  let resp, _ =
    rpc_ok ~ctx:"fire" srv submitter
      (Json.Obj
         [ ("id", Json.Int 3); ("op", Json.Str "submit");
           ("query", Json.Str q2) ])
  in
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

(* ---------------------- protocol edge cases ----------------------- *)

let test_overloaded () =
  let db = Database.create () in
  let engine = Online.create db in
  let srv = mk_server ~max_pending:1 db (Server.Sequential engine) in
  let conn = connect srv in
  seed_over_wire srv conn;
  (* Two queries that cannot coordinate with each other. *)
  ignore
    (rpc_ok ~ctx:"first" srv conn
       (Json.Obj
          [
            ("id", Json.Int 1); ("op", Json.Str "submit");
            ("query", Json.Str "qa: { R(G1, y) } R(G0, x) :- F(x, Zurich).");
          ]));
  let resp, _ =
    rpc ~ctx:"second" srv conn
      (Json.Obj
         [
           ("id", Json.Int 2); ("op", Json.Str "submit");
           ("query", Json.Str "qb: { R(G3, y) } R(G2, x) :- F(x, Paris).");
         ])
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
  let resp, _ =
    rpc_ok ~ctx:"submit qb" srv bystander
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ("query", Json.Str "qb: { R(G0, y) } R(G1, x) :- F(x, Zurich).");
         ])
  in
  Alcotest.(check (option string))
    "pair coordinates across the sessions" (Some "coordinated")
    (Json.str_mem "result" resp);
  Unix.close fd;
  Server.Client.close bystander;
  pump srv;
  Server.stop srv

(* A bare listening socket plays a broken server.  The client must
   raise [Bad_frame] on a bad length prefix and on a well-framed
   non-JSON payload: never [Invalid_argument], never a timeout while a
   valid frame sits in its buffer. *)
let test_client_bad_frames () =
  let expect_bad_frame ~ctx bytes ~after =
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
    ignore (Unix.write_substring fd bytes 0 (String.length bytes));
    (match Server.Client.recv ~timeout:2.0 conn with
    | exception Server.Client.Bad_frame _ -> ()
    | Some j -> Alcotest.failf "%s: decoded %s" ctx (Json.to_string j)
    | None -> Alcotest.failf "%s: timed out" ctx);
    after conn;
    Server.Client.close conn;
    Unix.close fd;
    Unix.close lfd
  in
  expect_bad_frame ~ctx:"negative length" "\xff\xff\xff\xfb" ~after:ignore;
  expect_bad_frame ~ctx:"oversized length" "\x7f\xff\xff\xff" ~after:ignore;
  expect_bad_frame ~ctx:"non-JSON payload"
    (raw_frame "not json" ^ raw_frame {|{"ok":true}|})
    ~after:(fun conn ->
      Alcotest.(check (option string))
        "the frame after it is still read" (Some {|{"ok":true}|})
        (Option.map Json.to_string (Server.Client.recv ~timeout:2.0 conn)))

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
let with_durable_server tag f =
  Obs.set_metrics true;
  Obs.Flight_recorder.arm ();
  let dir = fresh_dir tag in
  let wal, db, engine = Durable.create_engine (Durable.config dir) in
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
    rpc srv conn
      (Json.Obj
         [ ("id", Json.Int 9); ("op", Json.Str "submit");
           ("query", Json.Str "boom: { R(Nobody, y) } R(Boom, x) :- F(x, Zurich).") ])
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

(* A WAL write failure is fail-stop, not an [internal_error]: [step]
   raises [Durable.Wal_failed] and the request gets no response.  The
   handle stays failed, so no later mutating request — from any session,
   after the fault itself has cleared — is answered either, and the
   WAL still recovers to the state before the failed write. *)
let test_wal_failure_stops () =
  with_durable_server "walfail" @@ fun dir db engine srv conn bystander ->
  let last_good = observe db engine in
  let expect_stop ctx c req =
    Server.Client.send c req;
    let rec go tries =
      if tries > 200 then Alcotest.failf "%s: the server kept running" ctx
      else
        match Server.step ~timeout:0.01 srv with
        | _ -> go (tries + 1)
        | exception Durable.Wal_failed _ -> ()
    in
    go 0;
    List.iter
      (fun c ->
        Option.iter
          (fun fr -> Alcotest.failf "%s: answered %s" ctx (Json.to_string fr))
          (Server.Client.try_recv c))
      [ conn; bystander ]
  in
  let before = incidents () in
  Durable.inject_journal_failure (Some (Unix.Unix_error (Unix.EIO, "write", "")));
  expect_stop "insert under EIO" conn
    (Json.Obj
       [ ("op", Json.Str "insert"); ("rel", Json.Str "F");
         ("tuple", Json.Arr [ Json.Int 300; Json.Str "Oslo" ]) ]);
  Durable.inject_journal_failure None;
  Alcotest.(check int) "one incident recorded" (before + 1) (incidents ());
  expect_stop "submit after the fault cleared" bystander
    (Json.Obj
       [ ("op", Json.Str "submit");
         ("query", Json.Str "qa: { } R(A, x) :- F(x, Zurich).") ]);
  expect_stop "create_table after the fault cleared" conn
    (Json.Obj
       [ ("op", Json.Str "create_table"); ("name", Json.Str "G");
         ("attrs", Json.Arr [ Json.Str "a" ]) ]);
  Alcotest.check obs_t "the WAL recovers the state before the failure"
    last_good (recovered_state dir)

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

let suite =
  [
    Alcotest.test_case "json frames round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case
      "differential: interleaved clients == sequential reference" `Quick
      test_differential;
    Alcotest.test_case
      "differential: kill + restart over --wal converges" `Quick
      test_kill_and_restart;
    Alcotest.test_case "client dying mid-frame only kills its session"
      `Quick test_client_dies_mid_frame;
    Alcotest.test_case "subscriber dying before notify is a session event"
      `Quick test_subscriber_dies_before_notify;
    Alcotest.test_case "admission control returns typed overloaded" `Quick
      test_overloaded;
    Alcotest.test_case "protocol errors keep the session alive" `Quick
      test_protocol_errors;
    Alcotest.test_case "one-frame crashes become typed error frames" `Quick
      test_killer_frames;
    Alcotest.test_case "client: bad frames raise Bad_frame" `Quick
      test_client_bad_frames;
    Alcotest.test_case "an unknown exception is an internal_error frame"
      `Quick test_internal_error;
    Alcotest.test_case "a WAL write failure stops the server" `Quick
      test_wal_failure_stops;
    Alcotest.test_case "escaped and raw spellings of a constant coordinate"
      `Quick test_escaped_constant_coordinates;
  ]
