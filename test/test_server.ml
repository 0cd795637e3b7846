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
module Json = Server.Json

let chaos_seed =
  match int_of_string_opt (try Sys.getenv "CHAOS_SEED" with Not_found -> "")
  with
  | Some s -> s
  | None -> 42

(* ----------------------- observable state ------------------------- *)

type obs_state = {
  o_pending : (int * string) list;
  o_comps : int list list;
  o_satisfied : int;
  o_next_id : int;
  o_tables : (string * Tuple.t list) list;
}

let observe db engine =
  {
    o_pending =
      List.map
        (fun (id, q) -> (id, q.Query.name))
        (Online.pending_entries engine);
    o_comps = Online.components engine;
    o_satisfied = Online.total_coordinated engine;
    o_next_id = Online.next_id engine;
    o_tables =
      List.map
        (fun r ->
          (Relation.name r, List.sort Tuple.compare (Relation.to_list r)))
        (Database.relations db);
  }

let pp_obs ppf s =
  Format.fprintf ppf "pending=[%s] satisfied=%d next_id=%d tuples=[%s]"
    (String.concat ";"
       (List.map (fun (i, n) -> Printf.sprintf "%d:%s" i n) s.o_pending))
    s.o_satisfied s.o_next_id
    (String.concat ";"
       (List.map
          (fun (n, tups) -> Printf.sprintf "%s:%d" n (List.length tups))
          s.o_tables))

let obs_t = Alcotest.testable pp_obs ( = )

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
  Server.create cfg { Server.db; engine = Server.Sequential engine; durable; guard }

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

let dests = [| "Zurich"; "Paris"; "Athens"; "Nowhere" |]

let random_query rng i =
  let g k = cs (Printf.sprintf "g%d" k) in
  let post =
    if Prng.int rng 4 < 3 then [ atom "R" [ g (Prng.int rng 4); var "y" ] ]
    else []
  in
  Query.make
    ~name:(Printf.sprintf "q%d" i)
    ~post
    ~head:[ atom "R" [ g (Prng.int rng 4); var "x" ] ]
    [ atom "F" [ var "x"; cs dests.(Prng.int rng (Array.length dests)) ] ]

type op = Submit of string | Flush | Insert of int * string

let gen_trace rng n =
  let next_fid = ref 1000 in
  List.init n (fun i ->
      let roll = Prng.int rng 10 in
      if roll < 7 then Submit (Parser.query_to_string (random_query rng i))
      else if roll < 9 then Flush
      else begin
        incr next_fid;
        Insert (!next_fid, dests.(Prng.int rng 3))
      end)

let req_of_op id = function
  | Submit src ->
    Json.Obj
      [ ("id", Json.Int id); ("op", Json.Str "submit"); ("query", Json.Str src) ]
  | Flush -> Json.Obj [ ("id", Json.Int id); ("op", Json.Str "flush") ]
  | Insert (fid, dest) ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("op", Json.Str "insert");
        ("rel", Json.Str "F");
        ("tuple", Json.Arr [ Json.Int fid; Json.Str dest ]);
      ]

let apply_ref rdb rengine = function
  | Submit src -> ignore (Online.submit rengine (Parser.parse_query src))
  | Flush -> ignore (Online.flush rengine)
  | Insert (fid, dest) -> Database.insert rdb "F" [ vi fid; vs dest ]

let seed_facts = [ (101, "Zurich"); (102, "Zurich"); (200, "Paris") ]

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
  let rengine = Online.create ~eager:true ~consume rdb in
  seed_reference rdb;
  (rdb, rengine)

(* ------------------ differential: interleaved clients ------------- *)

let run_differential ~seed ~nclients ~consume () =
  let ctx = Printf.sprintf "diff-%d-%b" nclients consume in
  let db = Database.create () in
  let engine = Online.create ~eager:true ~consume db in
  let srv = mk_server db engine in
  let conns = Array.init nclients (fun _ -> connect srv) in
  let rdb, rengine = mk_reference ~consume () in
  seed_over_wire srv conns.(0);
  let trace = gen_trace (Prng.create seed) 40 in
  List.iteri
    (fun i op ->
      let conn = conns.(i mod nclients) in
      let resp, _ =
        rpc ~ctx:(Printf.sprintf "%s op %d" ctx i) srv conn (req_of_op i op)
      in
      (match Json.mem "ok" resp with
      | Some (Json.Bool _) -> ()
      | _ -> Alcotest.failf "%s op %d: malformed response" ctx i);
      apply_ref rdb rengine op;
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
    Durable.create_engine ~eager:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:5 dir)
  in
  let srv = mk_server ~durable:wal db engine in
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
      apply_ref rdb rengine op)
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
  let srv2 = mk_server ~durable:wal2 db2 engine2 in
  let conns2 = Array.init nclients (fun _ -> connect srv2) in
  List.iteri
    (fun i op ->
      ignore
        (rpc ~ctx:(Printf.sprintf "restart op %d" i) srv2
           conns2.(i mod nclients) (req_of_op (100 + i) op));
      apply_ref rdb rengine op)
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
  let engine = Online.create ~eager:true db in
  let srv = mk_server db engine in
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
  let engine = Online.create ~eager:true db in
  let srv = mk_server db engine in
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
  let engine = Online.create ~eager:true db in
  let srv = mk_server ~max_pending:1 db engine in
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
  let engine = Online.create ~eager:true db in
  let srv = mk_server db engine in
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
  ]

(* A bare socket speaking the frame protocol with raw payload bytes,
   one request and one response at a time (no subscription). *)
let raw_connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string loopback, Server.port srv));
  fd

let raw_rpc ~ctx srv fd payload =
  let n = String.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string payload 0 frame 4 n;
  ignore (Unix.write fd frame 0 (4 + n));
  let inb = Buffer.create 64 and chunk = Bytes.create 4096 in
  let rec go tries =
    let got = Buffer.contents inb in
    let len = String.length got in
    if len >= 4 && len >= 4 + Int32.to_int (String.get_int32_be got 0) then
      match Json.parse (String.sub got 4 (len - 4)) with
      | Ok j -> j
      | Error why -> Alcotest.failf "%s: unparsable response: %s" ctx why
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

let test_killer_frames () =
  let db = Database.create () in
  let engine = Online.create ~eager:true db in
  let srv = mk_server db engine in
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

(* A \u-escaped surrogate pair decodes to the same UTF-8 bytes as the
   raw character, so a constant spelled escaped in one request and raw
   in another is one value: the pair unifies and coordinates. *)
let test_escaped_constant_coordinates () =
  let db = Database.create () in
  let engine = Online.create ~eager:true db in
  let srv = mk_server db engine in
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
    Alcotest.test_case "escaped and raw spellings of a constant coordinate"
      `Quick test_escaped_constant_coordinates;
  ]
