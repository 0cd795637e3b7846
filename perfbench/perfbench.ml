(* The served end-to-end benchmark's worker.  perfbench/run.py starts
   one fresh process per round and aggregates; each subcommand prints a
   single JSON object on stdout (a round writes it to FILE instead).

     perfbench round  --workload W --seed N --dir D --out FILE [--traced]
     perfbench oracle --workload W --seed N [--layers] [--wal DIR]...
     perfbench dump   --workload W --seed N --out FILE
     perfbench machine

   A round serves one workload through a real [Server] bound to a
   Unix socket under D, driving the in-process clients and [Server.step]
   from this one thread, closed loop with one item in flight.  Frames
   are built and responses decoded between 256-item chunks, outside the
   timed wall. *)

open Relational
module Json = Server.Json
module Online = Coordination.Online
module Stats = Coordination.Stats

let now () = Obs.now_ns ()

let ns_since t0 = Int64.to_int (Int64.sub (now ()) t0)

let chunk = 256

(* Items between two drains of the subscriber connection. *)
let drain_every = 64

exception Stalled of string

(* ------------------------------ host speed ----------------------------- *)

(* On a virtual machine that shares its physical cores with other
   tenants, the same round runs up to half again as long from one
   minute to the next.  A fixed kernel of independent integer
   operations, timed before every timed chunk, slows down with it: it
   competes for the core the way served requests do.  It touches no
   memory and allocates nothing, so no change to the code under test
   can make it faster or slower.  run.py scales a round's timings by
   the kernel's time; the report shows both. *)
let calibration_sink = ref 0

let calibrate () =
  let t0 = now () in
  let a = ref !calibration_sink and b = ref 1 and c = ref 2 and d = ref 3 in
  for i = 1 to 300_000 do
    a := (!a + i) lxor (!a lsr 3);
    b := (!b + i) lxor (!b lsl 1);
    c := (!c lxor i) + (!c lsr 5);
    d := (!d + (i lsl 2)) lxor (!d lsr 7)
  done;
  calibration_sink := (!a + !b + !c + !d) land 0xff;
  ns_since t0

(* ------------------------------ samples -------------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let samples_json s =
  Json.Arr
    (List.init s.n (fun i -> Json.Float (Float.round (s.a.(i) *. 100.) /. 100.)))

(* ------------------------------- a round ------------------------------- *)

(* Counters the traced pass accumulates over the timed items. *)
type trace = {
  mutable step_ns : int;
  mutable io_ns : int;
  mutable steps : int;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable sub_bytes : int;
  mutable drains : int;
  mutable wal_bytes : int;
  mutable snap_bytes : int;
  mutable snapshots : int;
  mutable snapshot_ns : int;
  mutable item_ns : int;
}

(* One traced item's span, keyed by the id of its first request. *)
type span = { id : int; total_ns : int; step_ns : int; io_ns : int; snapshot : bool }

type round = {
  srv : Server.t;
  main : Wire.conn;
  sub : Wire.conn option;
  mutable traced : bool;
  tr : trace;
  mutable sub_frames : int;
  mutable spans : span list;
}

let step r =
  if r.traced then begin
    let t0 = now () in
    ignore (Server.step ~timeout:0.0 r.srv);
    r.tr.step_ns <- r.tr.step_ns + ns_since t0;
    r.tr.steps <- r.tr.steps + 1
  end
  else ignore (Server.step ~timeout:0.0 r.srv)

let io r f =
  if r.traced then begin
    let t0 = now () in
    let x = f () in
    r.tr.io_ns <- r.tr.io_ns + ns_since t0;
    x
  end
  else f ()

(* Send one item's pre-encoded frames and serve until all [nresp]
   responses are back; payloads are appended to [out]. *)
let exchange r data nresp out =
  io r (fun () -> Wire.send ~stall:(fun () -> step r) r.main data);
  let got = ref 0 and spins = ref 0 in
  let t0 = now () in
  while !got < nresp do
    step r;
    io r (fun () ->
        Wire.fill r.main;
        let rec take () =
          match Wire.take r.main with
          | Some p ->
            out := p :: !out;
            incr got;
            take ()
          | None -> ()
        in
        take ());
    incr spins;
    if !spins land 1023 = 0 && ns_since t0 > 10_000_000_000 then
      raise (Stalled (Printf.sprintf "no response after 10 s (%d of %d)" !got nresp))
  done

let drain_sub r =
  match r.sub with
  | None -> ()
  | Some c ->
    let before = c.Wire.bytes_in in
    Wire.fill c;
    r.sub_frames <- r.sub_frames + Wire.skip_frames c;
    if r.traced then begin
      r.tr.sub_bytes <- r.tr.sub_bytes + (c.Wire.bytes_in - before);
      r.tr.drains <- r.tr.drains + 1
    end

let request r json =
  let out = ref [] in
  exchange r (Wire.frame json) 1 out;
  match !out with [ p ] -> p | _ -> raise (Stalled "expected one response")

(* Peak resident memory of this process image (VmHWM), in MB.  Read
   here rather than from the parent's rusage, which also counts the
   parent's own memory at the moment of exec. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let newest_snapshot dir =
  Array.fold_left
    (fun acc f ->
      if String.length f > 5 && String.sub f 0 5 = "snap-" then max acc f else acc)
    "" (Sys.readdir dir)

let run_round w ~seed ~dir ~traced =
  let shape = Trace.shape w in
  let t_setup = now () in
  let sock = Filename.concat dir "s.sock" in
  let wal_dir = Filename.concat dir "wal" in
  let db, engine, durable =
    if shape.wal then
      let t, db, e =
        Durable.create_engine ~consume:shape.consume
          (Durable.config ~fsync:Durable.Never wal_dir)
      in
      (db, e, Some t)
    else begin
      let db = Database.create () in
      if shape.posts then ignore (Workload.Social.install_posts db);
      (db, Online.create ~consume:shape.consume db, None)
    end
  in
  let srv =
    Server.create
      (Server.default_config (Server.Unix_socket sock))
      { Server.db; engine = Server.Sequential engine; durable; guard = None }
  in
  let main = Wire.connect sock in
  let sub = if shape.subscriber then Some (Wire.connect sock) else None in
  let tr =
    {
      step_ns = 0; io_ns = 0; steps = 0; minor_words = 0.; minor_gcs = 0;
      major_gcs = 0; sub_bytes = 0; drains = 0; wal_bytes = 0; snap_bytes = 0;
      snapshots = 0; snapshot_ns = 0; item_ns = 0;
    }
  in
  let r = { srv; main; sub; traced = false; tr; sub_frames = 0; spans = [] } in
  Option.iter
    (fun c ->
      let got = ref None in
      Wire.send c (Wire.frame (Json.Obj [ ("op", Json.Str "subscribe") ]));
      while !got = None do
        step r;
        Wire.fill c;
        got := Wire.take c
      done)
    sub;
  let gen = Trace.make w ~seed in
  let digest = Replay.digest () in
  let failed = ref 0 and attempted = ref 0 and fired = ref 0 in
  let first_failure = ref "" in
  let classes = [ "pending"; "match"; "retire"; "restock" ] in
  let lat = List.map (fun c -> (c, samples ())) classes in
  let wall_ns = ref 0 and timed_requests = ref 0 in
  let calibration_ns = ref 0 and calibrations = ref 0 in
  let record_line line =
    Replay.add digest line;
    incr attempted;
    if Replay.is_failure line then begin
      incr failed;
      if !first_failure = "" then first_failure := line
    end;
    fired := !fired + Replay.fired_sets line
  in
  (* Serve [n] items; timed items record latency per class. *)
  let serve ~timed n =
    let left = ref n in
    while !left > 0 do
      let k = min chunk !left in
      left := !left - k;
      let items = Array.init k (fun _ -> gen.Trace.next ()) in
      let frames =
        Array.map
          (fun it ->
            let rs = Trace.requests it in
            (String.concat "" (List.map Wire.frame rs), List.length rs))
          items
      in
      let outs = Array.make k [] in
      let took = Array.make k 0 in
      if timed then begin
        calibration_ns := !calibration_ns + calibrate ();
        incr calibrations
      end;
      let c0 = now () in
      Array.iteri
        (fun i (data, nresp) ->
          let out = ref [] in
          let gc0 = if r.traced then Some (Gc.quick_stat ()) else None in
          let seg0, off0 =
            match durable with
            | Some d when r.traced -> (Durable.current_segment d, Durable.wal_offset d)
            | _ -> ("", 0)
          in
          let step0 = tr.step_ns and io0 = tr.io_ns in
          let t0 = now () in
          exchange r data nresp out;
          took.(i) <- ns_since t0;
          outs.(i) <- List.rev !out;
          if r.traced then begin
            tr.item_ns <- tr.item_ns + took.(i);
            (match gc0 with
            | Some g0 ->
              let g1 = Gc.quick_stat () in
              tr.minor_words <- tr.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
              tr.minor_gcs <- tr.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
              tr.major_gcs <- tr.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections)
            | None -> ());
            let snapshot =
              match durable with
              | None -> false
              | Some d ->
                let seg1 = Durable.current_segment d and off1 = Durable.wal_offset d in
                if seg1 = seg0 then begin
                  tr.wal_bytes <- tr.wal_bytes + (off1 - off0);
                  false
                end
                else begin
                  (* A segment change marks a snapshot step. *)
                  tr.wal_bytes <- tr.wal_bytes + (file_size seg0 - off0) + off1;
                  tr.snapshots <- tr.snapshots + 1;
                  tr.snapshot_ns <- tr.snapshot_ns + took.(i);
                  tr.snap_bytes <-
                    tr.snap_bytes
                    + file_size (Filename.concat wal_dir (newest_snapshot wal_dir));
                  true
                end
            in
            let id =
              match Trace.requests items.(i) with
              | req :: _ -> Option.value ~default:0 (Json.int_mem "id" req)
              | [] -> 0
            in
            r.spans <-
              {
                id;
                total_ns = took.(i);
                step_ns = tr.step_ns - step0;
                io_ns = tr.io_ns - io0;
                snapshot;
              }
              :: r.spans
          end;
          if (i + 1) mod drain_every = 0 then drain_sub r)
        frames;
      if timed then wall_ns := !wall_ns + ns_since c0;
      Array.iteri
        (fun i rs ->
          let lines = List.map Replay.of_response rs in
          List.iter record_line lines;
          if timed then begin
            timed_requests := !timed_requests + List.length lines;
            let cls =
              match (items.(i), lines) with
              | Trace.Pipelined _, _ -> "restock"
              | _, [ l ] when Replay.kind l = "pending" -> "pending"
              | _, [ l ] when Replay.kind l = "coordinated" -> "match"
              | _ -> "retire"
            in
            push (List.assoc cls lat) (float_of_int took.(i) /. 1e3)
          end)
        outs
    done
  in
  let per_op x = x /. float_of_int (max 1 !timed_requests) in
  let body () =
    serve ~timed:false shape.setup_items;
    let setup_ns = ns_since t_setup in
    serve ~timed:false shape.warmup;
    let e0 = Stats.create () in
    Stats.merge ~into:e0 (Online.stats engine);
    let lsn0 = Option.fold ~none:0L ~some:Durable.last_lsn durable in
    let mut0 = Relation.mutation_count () in
    let out0 = main.Wire.bytes_out and in0 = main.Wire.bytes_in in
    let fired0 = !fired in
    (* Cost of the two Gc.quick_stat calls around each traced item. *)
    let gc_self =
      let g0 = Gc.quick_stat () in
      let g1 = Gc.quick_stat () in
      g1.Gc.minor_words -. g0.Gc.minor_words
    in
    r.traced <- traced;
    serve ~timed:true shape.timed;
    r.traced <- false;
    let e = Online.stats engine in
    let us_of ns = Int64.to_float ns /. 1e3 in
    let layers =
      if not traced then []
      else
        let probes = e.Stats.db_probes - e0.Stats.db_probes in
        let hits = e.Stats.plan_hits - e0.Stats.plan_hits in
        let lookups = hits + (e.Stats.plan_misses - e0.Stats.plan_misses) in
        let fires = !fired - fired0 in
        let req_bytes = main.Wire.bytes_out - out0 in
        let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
        [
          ("server.step_us", per_op (float_of_int tr.step_ns /. 1e3));
          ("server.client_io_us", per_op (float_of_int tr.io_ns /. 1e3));
          ( "server.bytes_per_op",
            per_op (float_of_int (req_bytes + main.Wire.bytes_in - in0)) );
          ("server.steps_per_op", per_op (float_of_int tr.steps));
          ( "server.sub_backlog_kb",
            if tr.drains = 0 then 0.0
            else float_of_int tr.sub_bytes /. float_of_int tr.drains /. 1024. );
          ( "engine.graph_us_per_op",
            per_op (us_of (Int64.sub e.Stats.graph_ns e0.Stats.graph_ns)) );
          ( "engine.unify_us_per_op",
            per_op (us_of (Int64.sub e.Stats.unify_ns e0.Stats.unify_ns)) );
          ( "engine.ground_us_per_op",
            per_op (us_of (Int64.sub e.Stats.ground_ns e0.Stats.ground_ns)) );
          ( "engine.candidates_per_fire",
            ratio (e.Stats.candidates - e0.Stats.candidates) fires );
          ("relational.probes_per_op", per_op (float_of_int probes));
          ( "relational.tuples_per_probe",
            ratio (e.Stats.tuples_scanned - e0.Stats.tuples_scanned) probes );
          ("relational.plan_hit_ratio", ratio hits lookups);
          ( "relational.mutations_per_op",
            per_op (float_of_int (Relation.mutation_count () - mut0)) );
          ( "wal.records_per_op",
            per_op
              (Int64.to_float
                 (Int64.sub
                    (Option.fold ~none:0L ~some:Durable.last_lsn durable)
                    lsn0)) );
          ("wal.bytes_per_op", per_op (float_of_int tr.wal_bytes));
          ( "wal.write_amplification",
            ratio (tr.wal_bytes + tr.snap_bytes) req_bytes );
          ("wal.snapshots", float_of_int tr.snapshots);
          ( "wal.snapshot_ms",
            if tr.snapshots = 0 then 0.0
            else float_of_int tr.snapshot_ns /. float_of_int tr.snapshots /. 1e6
          );
          ("wal.snapshot_share", ratio tr.snapshot_ns tr.item_ns);
          ("gc.minor_words_per_op",
            per_op (tr.minor_words -. (gc_self *. float_of_int shape.timed)));
          ("gc.minor_gcs_per_kop", 1000. *. per_op (float_of_int tr.minor_gcs));
          ("gc.major_gcs_per_kop", 1000. *. per_op (float_of_int tr.major_gcs));
        ]
    in
    let st = request r (Json.Obj [ ("op", Json.Str "status") ]) in
    let st = Result.get_ok (Json.parse st) in
    let field k = Json.Int (Option.value ~default:(-1) (Json.int_mem k st)) in
    for _ = 1 to 3 do
      step r;
      drain_sub r
    done;
    Json.Obj
      [
        ("setup_s", Json.Float (float_of_int setup_ns /. 1e9));
        ("peak_rss_mb", Json.Float (peak_rss_mb ()));
        ("wall_s", Json.Float (float_of_int !wall_ns /. 1e9));
        ( "calibration_ms",
          Json.Float
            (float_of_int !calibration_ns /. 1e6 /. float_of_int !calibrations)
        );
        ("requests", Json.Int !timed_requests);
        ( "samples",
          Json.Obj (List.map (fun (c, s) -> (c, samples_json s)) lat) );
        ("status", Json.Arr [ field "pending"; field "satisfied"; field "next_id" ]);
        ("notifications", Json.Int r.sub_frames);
        ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
        ( "slowest",
          let us ns = Json.Float (float_of_int ns /. 1e3) in
          Json.Arr
            (List.filteri
               (fun i _ -> i < 5)
               (List.sort (fun a b -> compare b.total_ns a.total_ns) r.spans)
            |> List.map (fun sp ->
                   Json.Obj
                     [
                       ("id", Json.Int sp.id);
                       ("us", us sp.total_ns);
                       ("step_us", us sp.step_ns);
                       ("io_us", us sp.io_ns);
                       ("snapshot", Json.Bool sp.snapshot);
                     ])) );
      ]
  in
  let outcome =
    match body () with
    | json -> json
    | exception Stalled why -> Json.Obj [ ("stalled", Json.Str why) ]
  in
  Wire.close main;
  Option.iter Wire.close sub;
  for _ = 1 to 3 do
    ignore (Server.step ~timeout:0.0 srv)
  done;
  Server.stop srv;
  Option.iter Durable.close durable;
  let common =
    [
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ("first_failure", Json.Str !first_failure);
      ("digest", Json.Str (Replay.hex digest));
      ("lines", Json.Int digest.Replay.lines);
      ("fired", Json.Int !fired);
    ]
  in
  match outcome with
  | Json.Obj fields -> Json.Obj (common @ fields)
  | j -> j

(* ------------------------------ the oracle ----------------------------- *)

(* Replay the trace in process; with [layers] time each layer over the
   timed items.  Then recover each served WAL directory given. *)
let run_oracle w ~seed ~layers ~wal_dirs =
  let shape = Trace.shape w in
  let o = Replay.create shape in
  let gen = Trace.make w ~seed in
  let calibration_ns = ref 0 and calibrations = ref 0 in
  let apply_items n =
    for i = 0 to n - 1 do
      if o.Replay.timing && i mod chunk = 0 then begin
        calibration_ns := !calibration_ns + calibrate ();
        incr calibrations
      end;
      List.iter
        (fun req -> ignore (Replay.apply o (Server.Json.to_string req)))
        (Trace.requests (gen.Trace.next ()))
    done
  in
  apply_items (shape.setup_items + shape.warmup);
  o.Replay.timing <- layers;
  apply_items shape.timed;
  o.Replay.timing <- false;
  let pending, satisfied, next_id = Replay.status o in
  let l = o.Replay.layers in
  let us ns = float_of_int ns /. 1e3 /. float_of_int (max 1 l.Replay.ops) in
  let wal =
    List.map
      (fun dir ->
        ( dir,
          match Replay.check_wal o dir with
          | Ok () -> Json.Str "ok"
          | Error why -> Json.Str why ))
      wal_dirs
  in
  Json.Obj
    [
      ("digest", Json.Str (Replay.hex o.Replay.digest));
      ("lines", Json.Int o.Replay.digest.Replay.lines);
      ("status", Json.Arr [ Json.Int pending; Json.Int satisfied; Json.Int next_id ]);
      ("fired", Json.Int o.Replay.fired);
      ("invalid", Json.Arr (List.rev_map (fun s -> Json.Str s) o.Replay.invalid));
      ("wal", Json.Obj wal);
      ( "layers",
        if not layers then Json.Obj []
        else
          Json.Obj
            [
              ("json.decode_us", Json.Float (us l.Replay.decode_ns));
              ("parse.us", Json.Float (us l.Replay.parse_ns));
              ("engine.op_us", Json.Float (us l.Replay.engine_ns));
              ("json.encode_us", Json.Float (us l.Replay.encode_ns));
              ( "calibration_ms",
                Json.Float
                  (float_of_int !calibration_ns /. 1e6
                  /. float_of_int (max 1 !calibrations)) );
            ] );
    ]

(* ------------------------------- the rest ------------------------------ *)

(* Every frame of a workload's trace, one JSON request per line: for
   chains the Posts table first, then set-up, warm-up and
   timed items, so [entangle client] replays a whole run against an
   empty [entangle serve]. *)
let dump w ~seed ~out =
  let shape = Trace.shape w in
  let oc = open_out out in
  let emit j =
    output_string oc (Server.Json.to_string j);
    output_char oc '\n'
  in
  if shape.posts then Trace.posts_frames emit;
  let gen = Trace.make w ~seed in
  for _ = 1 to shape.setup_items + shape.warmup + shape.timed do
    List.iter emit (Trace.requests (gen.Trace.next ()))
  done;
  close_out oc;
  Json.Obj [ ("dumped", Json.Str out) ]

(* The machine record: OCaml version and the median time of the host
   speed kernel over 64 calls. *)
let machine () =
  let times = List.sort compare (List.init 64 (fun _ -> calibrate ())) in
  Json.Obj
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("calibration_ms", Json.Float (float_of_int (List.nth times 32) /. 1e6));
    ]

let () =
  let args = Array.to_list Sys.argv in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let rec opts k = function
    | a :: v :: rest when a = k -> v :: opts k rest
    | _ :: rest -> opts k rest
    | [] -> []
  in
  let flag k = List.mem k args in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let need k = match opt k args with Some v -> v | None -> die ("missing " ^ k) in
  let workload () =
    match Trace.workload_of_string (need "--workload") with
    | Some w -> w
    | None -> die "unknown workload (chains|market)"
  in
  let seed () =
    match int_of_string_opt (need "--seed") with
    | Some s -> s
    | None -> die "--seed must be an integer"
  in
  let result =
    match args with
    | _ :: "round" :: _ ->
      let out = need "--out" in
      let r =
        run_round (workload ()) ~seed:(seed ()) ~dir:(need "--dir")
          ~traced:(flag "--traced")
      in
      let oc = open_out out in
      output_string oc (Server.Json.to_string r);
      close_out oc;
      Json.Obj [ ("written", Json.Str out) ]
    | _ :: "oracle" :: _ ->
      run_oracle (workload ()) ~seed:(seed ()) ~layers:(flag "--layers")
        ~wal_dirs:(opts "--wal" args)
    | _ :: "dump" :: _ -> dump (workload ()) ~seed:(seed ()) ~out:(need "--out")
    | _ :: "machine" :: _ -> machine ()
    | _ -> die "usage: perfbench (round|oracle|dump|machine) ..."
  in
  print_endline (Server.Json.to_string result)
