(* One differential harness for every configuration of the online
   engine (Section 6.1), judged against the rebuild-everything oracle
   (test/online_oracle.ml).

   A QCheck generator draws op traces: submissions, withdrawals,
   flushes, inserts (the first into a table creates it), store deletes
   and crash + recover.  Three drivers run each trace, with and without
   consume, drawing only the ops they can express (neither the WAL nor
   the protocol carries deletes):
   - in memory: [Online] on a plain store;
   - durable: [Online] journaling through the [Durable] WAL.  The trace
     runs again crashing at each of its I/O calls, each recovery after
     that crashing at each of its own, then tearing the tail each op
     appended ([Disk_fault]).  Every recovery must land on the oracle's
     state after the ops written, and the trace goes on from there;
   - served: [Server.step] over two sessions, with a WAL.  The server
     fires without a witness ([Online.submit ~witness:false]).  A crash
     stops the server without closing the WAL and restarts it on a
     recovery.  Each trace follows a fixed prefix whose component holds
     two candidates of different sizes ([served_prefix]), so a served
     engine that does not fire the largest fails at every seed.

   After every op the checker compares the answer (the verdict or the
   fired sets), the pending ids and names, the components, the
   satisfied count, next_id and every table with the oracle's, the
   table's row order included (so after every recovery too), and
   holds every set a driver fired to Definition 1
   ({!Helpers.check_fired}) against a shadow store of every tuple
   inserted so far.  The served driver sees sets by name only, so they
   are checked through the oracle's.  The in-memory driver also checks
   the graph each component hands the solver against
   [Coordination_graph.build].  A flush that fires nothing on a pool of
   at most 8 queries must leave no safe component in which [Brute]
   finds a coordinating set (Section 4).

   A failing trace prints as JSONL request frames ({!Helpers.frames}),
   one per line: the served driver sends exactly those frames, so a
   shrunk failure replays with [entangle client] against
   [entangle serve].  CHAOS_SEED seeds the generator; CHAOS_WAL_DIR
   relocates the WAL directories. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online

let fail fmt = Printf.ksprintf failwith fmt

(* --------------------------- generator ---------------------------- *)

(* The ops a configuration can express beyond submit, withdraw, flush
   and insert. *)
type can = { delete : bool; crash : bool }

(* [len] ops.  Queries come from {!Helpers.random_query}, as the parser
   reads them back.  A withdrawal names one of the last 4 pool ids
   handed out, a delete a tuple inserted earlier (perhaps booked or
   deleted since), an insert a fresh flight into F, or one time in four
   into U, which no query reads.  Fresh flight ids count down, so a
   table's key order is not its row order. *)
let gen_ops ~can ~len st =
  let int n = Random.State.int st n in
  let query i =
    Parser.parse_query (Parser.query_to_string (random_query int i))
  in
  let rec go i ids tuples acc =
    if i = len then List.rev acc
    else
      let op =
        match int 20 with
        | r when r < 9 -> Submit (query i)
        | r when r < 12 -> Withdraw (max 0 (ids - 1 - int 4))
        | r when r < 14 -> Flush
        | r when r < 17 ->
          Insert
            ( (if int 4 = 0 then "U" else "F"),
              [ vi (2000 - i); vs dests.(int (Array.length dests)) ] )
        | 17 when can.delete ->
          let rel, tuple = List.nth tuples (int (List.length tuples)) in
          Delete (rel, tuple)
        | 18 when can.crash -> Crash
        | _ -> Flush
      in
      match op with
      | Submit _ -> go (i + 1) (ids + 1) tuples (op :: acc)
      | Insert (rel, t) -> go (i + 1) ids ((rel, t) :: tuples) (op :: acc)
      | _ -> go (i + 1) ids tuples (op :: acc)
  in
  go 0 0 (List.map (fun (f, d) -> ("F", [ vi f; vs d ])) seed_facts) []

(* ----------------------------- oracle ----------------------------- *)

(* The oracle's run of a trace: each op's answer, and the state after
   every prefix ([states.(i)] follows the first [i] ops), with its
   store's tables in row order. *)
type expected = {
  consume : bool;
  ops : op array;
  answers : answer array;
  states : obs_state array;
  rows : (string * Tuple.t list) list array;
}

(* Every table of [db], its live tuples in row order. *)
let rows db = List.map (fun r -> (Relation.name r, Relation.to_list r)) (Database.relations db)

(* An answer in words; [wire] as the protocol says it, which counts a
   rejection's witnesses. *)
let render ~wire = function
  | Submitted (Online.Rejected_unsafe ws) when wire ->
    Printf.sprintf "rejected %d" (List.length ws)
  | Submitted s -> submission_repr s
  | Fired sets ->
    let names c = String.concat "," (fired_names c) in
    "sets " ^ String.concat ";" (List.map names sets)
  | Withdrew true -> "withdrawn"
  | Withdrew false -> "not_found"
  | Stored -> ""

(* Section 4: a safe set that holds a coordinating subset fires one.
   So once a flush fires nothing on a pool of at most 8 queries, [Brute]
   finds no set in any safe component. *)
let check_complete ~ctx db o =
  let pool = Array.of_list (Online_oracle.pending o) in
  if Array.length pool <= 8 then
    List.iter
      (fun comp ->
        let qs = Query.rename_set (List.map (fun p -> pool.(p)) comp) in
        if
          Safety.is_safe (Coordination_graph.build qs)
          && Coordination.Brute.exists_coordinating_set db qs
        then
          fail "%s: the flush fired nothing, but Brute finds a set among %s" ctx
            (String.concat "," (List.map (fun p -> pool.(p).Query.name) comp)))
      (Online_oracle.components o)

let expect ~consume ops =
  let ops = Array.of_list ops in
  let db = Database.create () in
  let o = Online_oracle.create ~consume db in
  let state () =
    {
      o_pending =
        List.map (fun (id, q) -> (id, q.Query.name)) (Online_oracle.pending_entries o);
      o_comps = Online_oracle.components o;
      o_satisfied = Online_oracle.total_coordinated o;
      o_next_id = Online_oracle.next_id o;
      o_tables = tables db;
    }
  in
  let states = Array.make (Array.length ops + 1) (state ()) in
  let row_order = Array.make (Array.length ops + 1) [] in
  let answer i = function
    | Submit q -> Submitted (Online_oracle.submit o q)
    | Withdraw id -> Withdrew (Online_oracle.withdraw o id)
    | Flush ->
      let sets = Online_oracle.flush o in
      if sets = [] then check_complete ~ctx:(Printf.sprintf "oracle, op %d" i) db o;
      Fired sets
    | (Insert _ | Delete _ | Crash) as op ->
      write_store db op;
      Stored
  in
  let answers =
    Array.mapi
      (fun i op ->
        let a = answer i op in
        states.(i + 1) <- state ();
        row_order.(i + 1) <- rows db;
        a)
      ops
  in
  { consume; ops; answers; states; rows = row_order }

(* ----------------------------- checker ---------------------------- *)

(* A configuration under test: [apply i op] runs op [i] and returns its
   answer in words and the sets it fired, with their assignments where
   the driver sees them.  [live] is its current store and engine. *)
type config = {
  wire : bool;  (** answers as the protocol says them *)
  apply : int -> op -> string * Online.coordinated list;
  live : unit -> Database.t * Online.t;
}

let show s = Format.asprintf "%a" pp_obs s

let check_state ~ctx want (db, engine) =
  let got = observe db engine in
  if got <> want then fail "%s:\n  state  %s\n  oracle %s" ctx (show got) (show want)

(* Every table of [db] lists its tuples as the oracle's store, which
   never crashed, does in [want] (a table it lacks as empty): recovery
   keeps row order, and so the first answer of a probe. *)
let check_rows ~ctx want db =
  List.iter
    (fun (name, got) ->
      if got <> Option.value ~default:[] (List.assoc_opt name want) then
        fail "%s: %s lists its tuples out of the oracle's row order" ctx name)
    (rows db)

(* Run ops [from..] of [x] on [c], checking each against the oracle;
   [after i] runs once op [i] is checked. *)
let replay ?(after = ignore) ~ctx x c ~from =
  let shadow = Database.create () in
  let note op = match op with Insert _ -> write_store shadow op | _ -> () in
  Array.iteri (fun i op -> if i < from then note op) x.ops;
  for i = from to Array.length x.ops - 1 do
    let ctx = Printf.sprintf "%s, op %d" ctx i in
    let said, sets =
      try c.apply i x.ops.(i) with Failure m -> fail "%s: %s" ctx m
    in
    note x.ops.(i);
    let want = render ~wire:c.wire x.answers.(i) in
    if said <> want then fail "%s: answered %S, the oracle %S" ctx said want;
    let store = if x.consume then shadow else fst (c.live ()) in
    List.iter (check_fired ~ctx store) sets;
    check_state ~ctx x.states.(i + 1) (c.live ());
    check_rows ~ctx x.rows.(i + 1) (fst (c.live ()));
    after i
  done

let in_memory x =
  let db = Database.create () in
  let engine = Online.create ~consume:x.consume db in
  let apply _ op =
    let a = apply_op db engine op in
    check_component_graphs engine;
    (render ~wire:false a, fired_sets a)
  in
  let live () = (db, engine) in
  replay ~ctx:"in memory" x ~from:0 { wire = false; apply; live }

(* ----------------------------- durable ---------------------------- *)

exception Killed

(* A WAL directory's configuration; its seam runs [!io] before each I/O
   call, so a run can count calls, crash at one, or let them be.  A
   hand-off also waits for an image's worth of journal, so the cadence
   floor is 3: at the CI seeds the traces hand off, and crash at, at
   least as many snapshots as under a 4-group count alone
   (EXPERIMENTS.md, "Snapshot cadence by journal growth"). *)
let wal_config ?(snapshot_every = 3) io dir =
  Durable.config ~fsync:(Durable.Every_n 8) ~snapshot_every
    ~io:(fun c -> !io c) dir

let recover_exn ~ctx cfg =
  match Durable.recover cfg with
  | Ok r -> r
  | Error why -> fail "%s: recovery failed: %s" ctx why

(* Kill [wal] (close it with every I/O call failing, so its descriptor
   closes and nothing more reaches the directory) and recover [cfg]: a
   clean tail. *)
let restart io cfg wal =
  let seam = !io in
  io := (fun _ -> raise Killed);
  (try Durable.close wal with Killed -> ());
  io := seam;
  let wal, db, engine, report = recover_exn ~ctx:"restart" cfg in
  if report.Durable.truncation <> None then fail "the kill left a torn tail";
  (wal, db, engine)

(* A seam that crashes at call [k] and every later one, and records
   the kind of call [k] in [hit]. *)
let crash_at ?(hit = ref None) k =
  let n = ref 0 in
  fun c ->
    incr n;
    if !n >= k then (if !hit = None then hit := Some c; raise Killed)

(* The durable configuration over the handle [h] (WAL, store, engine)
   of [cfg], whose seam reads [io].  [on_op i] runs before op [i].  One
   writer step follows each op, so a snapshot's steps interleave with
   later ops. *)
let durable_config ?(on_op = ignore) ~io cfg h =
  let h = ref h in
  let apply i op =
    on_op i;
    let wal, db, engine = !h in
    if op = Crash then begin
      h := restart io cfg wal;
      ("", [])
    end
    else
      let a = apply_op ~wal db engine op in
      ignore (Durable.writer_step wal : string option);
      (render ~wire:false a, fired_sets a)
  in
  ({ wire = false; apply; live = (fun () -> let _, db, e = !h in (db, e)) }, h)

let close h =
  let wal, _, _ = !h in
  Durable.close wal

(* The state a crash recovers to after op [i] made [appends] journal
   writes, and the op to go on from.  An insert that creates its table
   writes the table, then the tuple. *)
let written x i appends =
  let s = x.states.(i) in
  match x.ops.(i) with
  | _ when appends = 0 -> (s, i)
  | Insert (rel, _) when appends = 1 && not (List.mem_assoc rel s.o_tables) ->
    ({ s with o_tables = s.o_tables @ [ (rel, []) ] }, i)
  | _ -> (x.states.(i + 1), i + 1)

(* Kinds of I/O call the crash sweep has crashed at. *)
let crashed_kinds = Hashtbl.create 16

(* Recover a copy of [dir], which a crash left at state [want] before
   op [from], crashing the recovery at its call j = 1, 2, ... and
   recovering again each time; once a recovery makes fewer than j
   calls, go on with the trace from [from].  A tail is clean unless a
   crash hit a segment's header write. *)
let recover_sweep ~ctx x ~torn ~want ~from dir =
  let copy = fresh_dir "diff-rec" in
  let rec go j =
    rm_rf copy;
    copy_dir dir copy;
    let hit = ref None in
    let io = ref (crash_at ~hit j) in
    let cfg = wal_config io copy in
    let ctx = Printf.sprintf "%s, recovery crashed at %d" ctx (j - 1) in
    let check ~torn (_, db, engine, report) =
      if (not torn) && report.Durable.truncation <> None then
        fail "%s: the tail is not clean" ctx;
      check_state ~ctx want (db, engine);
      check_rows ~ctx x.rows.(from) db
    in
    match Durable.recover cfg with
    | Ok ((wal, db, engine, _) as r) ->
      io := ignore;
      check ~torn r;
      let c, h = durable_config ~io cfg (wal, db, engine) in
      replay ~ctx x c ~from;
      close h
    | Error why -> fail "%s: recovery failed: %s" ctx why
    | exception Killed ->
      io := ignore;
      let ((wal, _, _, _) as r) = recover_exn ~ctx cfg in
      check ~torn:(torn || !hit = Some Durable.Segment_header) r;
      Durable.close wal;
      go (j + 1)
  in
  go 1;
  rm_rf copy

(* Run the trace and close the WAL, counting the I/O calls; then for
   every k run it again crashing at call k, and recover (see
   [recover_sweep]). *)
let crash_sweep x =
  let at = ref 0 and appends = ref 0 in
  let on_op i = at := i; appends := 0 in
  (* The seam arms once the engine exists: the trace starts there. *)
  let run seam =
    let dir = fresh_dir "diff-crash" in
    let io = ref ignore in
    let cfg = wal_config io dir in
    let engine = Durable.create_engine ~consume:x.consume cfg in
    io := seam;
    let c, h = durable_config ~on_op ~io cfg engine in
    (dir, io, c, h)
  in
  let calls = ref [] in
  let dir, _, c, h =
    run (fun call ->
        calls := (call, !at, !appends) :: !calls;
        if call = Durable.Append then incr appends)
  in
  replay ~ctx:"durable" x c ~from:0;
  close h;
  rm_rf dir;
  List.iteri
    (fun k (call, i, appends) ->
      Hashtbl.replace crashed_kinds call ();
      let ctx = Printf.sprintf "durable, crash at I/O call %d (op %d)" (k + 1) i in
      let dir, io, c, h = run (crash_at (k + 1)) in
      (match
         replay ~ctx x c ~from:0;
         close h
       with
      | () -> fail "%s: no crash" ctx
      | exception Killed ->
        io := (fun _ -> raise Killed);
        (try close h with Killed -> ()));
      let want, from = written x i appends in
      recover_sweep ~ctx x ~torn:(call = Durable.Segment_header) ~want ~from dir;
      rm_rf dir)
    (List.rev !calls)

(* Run the trace with snapshots off; after each op that appended one
   group, tear a copy of the WAL inside that group (a torn write, a
   lost tail or a bit flip, drawn from CHAOS_SEED): recovery must land
   on the state before the op, reporting a truncation unless the cut
   fell on the boundary, and a second recovery must find a clean tail
   and the same state.  The trace then goes on from the torn op. *)
let torn_sweep x =
  let dir = fresh_dir "diff-torn" in
  let io = ref ignore in
  let cfg = wal_config ~snapshot_every:0 io dir in
  let c, h = durable_config ~io cfg (Durable.create_engine ~consume:x.consume cfg) in
  let rng = Prng.create chaos_seed in
  let position () =
    let wal, _, _ = !h in
    (Durable.current_segment wal, Durable.wal_offset wal)
  in
  let last = ref (position ()) in
  let tear i =
    let seg, before = !last and seg', after = position () in
    last := (seg', after);
    match x.ops.(i) with
    | Insert (rel, _) when not (List.mem_assoc rel x.states.(i).o_tables) -> ()
    | _ when seg <> seg' || after <= before -> ()
    | _ ->
      let copy = fresh_dir "diff-torn-copy" in
      copy_dir dir copy;
      let fault = Disk_fault.draw rng ~protect:before ~size:after in
      Disk_fault.apply ~path:(Filename.concat copy (Filename.basename seg)) fault;
      let ctx = Format.asprintf "durable, op %d torn (%a)" i Disk_fault.pp fault in
      let cfg = wal_config ~snapshot_every:0 (ref ignore) copy in
      let wal, db, engine, report = recover_exn ~ctx cfg in
      (match fault with
      | Disk_fault.Lost_tail _ -> ()
      | Disk_fault.Torn_write { keep } when keep = before -> ()
      | _ -> if report.Durable.truncation = None then fail "%s: no truncation" ctx);
      check_state ~ctx x.states.(i) (db, engine);
      Durable.close wal;
      let wal, db, engine, report = recover_exn ~ctx cfg in
      if report.Durable.truncation <> None then fail "%s: torn again" ctx;
      check_state ~ctx x.states.(i) (db, engine);
      let c, h = durable_config ~io:(ref ignore) cfg (wal, db, engine) in
      replay ~ctx x c ~from:i;
      close h;
      rm_rf copy
  in
  replay ~after:tear ~ctx:"durable, snapshots off" x c ~from:0;
  close h;
  rm_rf dir

(* ----------------------------- served ----------------------------- *)

(* What a response says, in {!render}'s words for the protocol. *)
let said_of_response resp =
  let names = function
    | Json.Arr qs ->
      String.concat ","
        (List.filter_map (function Json.Str n -> Some n | _ -> None) qs)
    | _ -> "?"
  in
  let field = Json.mem in
  match (Json.str_mem "result" resp, field "queries" resp, field "sets" resp) with
  | Some "coordinated", Some qs, _ -> "fired " ^ names qs
  | Some "flushed", _, Some (Json.Arr sets) ->
    "sets " ^ String.concat ";" (List.map names sets)
  | Some "rejected_unsafe", _, _ ->
    Printf.sprintf "rejected %d"
      (Option.value ~default:(-1) (Json.int_mem "conflicts" resp))
  | Some (("pending" | "withdrawn") as said), _, _ -> said
  | Some ("inserted" | "status"), _, _ -> ""
  | None, _, _ when Json.str_mem "error" resp = Some "not_found" -> "not_found"
  | _ -> "unexpected " ^ Json.to_string resp

(* [Server.step] over two sessions, sending op [i]'s frames from
   session [i mod 2].  The WAL's seam starts no writer thread, so each
   snapshot is written right after the request that hands it off: a
   killed process takes its writer with it.  A [Crash] (a status
   request) then stops the server without closing the WAL, and a server
   on its recovery takes over with fresh sessions. *)
let served x =
  let dir = fresh_dir "diff-served" in
  let io = ref ignore in
  let cfg = wal_config ~snapshot_every:5 io dir in
  let start (wal, db, engine) =
    let srv = mk_server ~durable:wal db (Server.Sequential engine) in
    ((wal, db, engine), srv, [| connect srv; connect srv |])
  in
  let stop (_, srv, conns) =
    Array.iter Server.Client.close conns;
    Server.stop srv
  in
  let live = ref (start (Durable.create_engine ~consume:x.consume cfg)) in
  let frames = Array.of_list (frames (Array.to_list x.ops)) in
  let apply i op =
    let ((wal, _, _), srv, conns) as server = !live in
    let said =
      List.fold_left
        (fun _ frame ->
          let resp, _ = rpc srv conns.(i mod 2) frame in
          while Durable.writer_step wal <> None do () done;
          said_of_response resp)
        "" frames.(i)
    in
    if op = Crash then begin
      stop server;
      live := start (restart io cfg wal)
    end;
    (said, [])
  in
  let live_engine () = let (_, db, engine), _, _ = !live in (db, engine) in
  replay ~ctx:"served" x ~from:0 { wire = true; apply; live = live_engine };
  stop !live;
  let (wal, _, _), _, _ = !live in
  Durable.close wal;
  rm_rf dir

(* A fixed prefix the served driver runs before each drawn trace: [pa]
   waits for [pb], and [pb] alone coordinates, so [pb]'s arrival leaves
   two candidates of different sizes in one component, [{pb}] and
   [{pa, pb}].  The largest-candidate selection fires both; an engine
   that fired the first candidate it found would fire [pb] alone.  Their
   flight is in Oslo, which no drawn query reads. *)
let served_prefix =
  [
    Insert ("F", [ vi 900; vs "Oslo" ]);
    Submit (rq ~dest:"Oslo" "pa" ~post:[ "pb" ] ~head:"pa");
    Submit (rq ~dest:"Oslo" "pb" ~post:[] ~head:"pb");
  ]

(* ----------------------------- cases ------------------------------ *)

(* [count] traces of [len] ops drawn from CHAOS_SEED, each run by
   [driver] with and without consume after [prefix], whose ids the
   drawn withdrawals are shifted past.  A failure reports the shrunk
   trace as JSONL frames, one a line. *)
let differential ?(prefix = []) name ~can ~len ~count driver =
  let shift =
    List.length (List.filter (function Submit _ -> true | _ -> false) prefix)
  in
  let trace ops =
    seed_ops @ prefix
    @ List.map (function Withdraw id -> Withdraw (id + shift) | op -> op) ops
  in
  let print ops =
    String.concat ""
      (List.map
         (fun f -> "\n" ^ Json.to_string f)
         (List.concat (frames (trace ops))))
    ^ "\n"
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| chaos_seed; Hashtbl.hash name |])
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print ~shrink:QCheck.Shrink.list (gen_ops ~can ~len))
       (fun ops ->
         List.iter
           (fun consume ->
             try driver (expect ~consume (trace ops))
             with Failure m -> QCheck.Test.fail_reportf "consume %b: %s" consume m)
           [ false; true ];
         true))

let every_kind_crashed () =
  Alcotest.(check int) "kinds of I/O call the durable case crashed at" 10
    (Hashtbl.length crashed_kinds)

let suite =
  [
    differential "in memory == oracle"
      ~can:{ delete = true; crash = false }
      ~len:40 ~count:200 in_memory;
    differential "durable: every crash point and torn tail == oracle"
      ~can:{ delete = false; crash = true }
      ~len:14 ~count:4
      (fun x ->
        crash_sweep x;
        torn_sweep x);
    Alcotest.test_case "durable: every kind of I/O call crashed" `Quick
      every_kind_crashed;
    differential ~prefix:served_prefix "served with a WAL == oracle"
      ~can:{ delete = false; crash = true }
      ~len:30 ~count:4 served;
  ]
