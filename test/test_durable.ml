(* The durability layer's honesty contract, case by case.

   A durable engine journals every operation through a checksummed WAL
   (lib/durable).  These cases pin recovery's handling of torn groups,
   garbage lengths, bit flips, corrupt and failed snapshots, failed
   fsyncs and segment opens, and the wire format's bytes: each recovered
   state must equal the state the live engine held when it stopped.
   The crash-at-every-I/O-call and torn-tail sweeps over random traces
   live in the differential harness (test/test_differential.ml), which
   holds them to the rebuild-everything oracle.  CHAOS_WAL_DIR relocates
   the scratch space (failures leave it behind for artifact upload). *)

open Relational
open Helpers
module Online = Coordination.Online

(* The schema and seed facts, journaled through [wal] so recovery can
   rebuild them. *)
let seed_store ?wal db = List.iter (write_store ?wal db) seed_ops

(* Recover [dir]; with [clean], the tail must be clean too. *)
let recover_exn ?(ctx = "") ?(clean = false) ?io dir =
  match Durable.recover (Durable.config ?io dir) with
  | Ok ((_, _, _, report) as r) ->
    if clean then
      Alcotest.(check bool) (ctx ^ ": clean tail") true
        (report.Durable.truncation = None);
    r
  | Error msg -> Alcotest.failf "%s: recover failed: %s" ctx msg

let snapshot_ok wal =
  Result.iter_error (Alcotest.failf "snapshot failed: %s") (Durable.snapshot wal)

let run wal db engine ops =
  List.iter (fun op -> ignore (apply_op ~wal db engine op : answer)) ops

(* A fixed trace: a pair that fires on arrival and one that fires on an
   insert (booking one flight twice under consume), a withdrawal, a
   pair across two destinations and a query that waits for good. *)
let trace =
  [
    Submit (rq "a" ~post:[ "b" ] ~head:"a");
    Submit (rq "b" ~post:[ "a" ] ~head:"b");
    Submit (rq ~dest:"Oslo" "c" ~post:[ "d" ] ~head:"c");
    Submit (rq ~dest:"Oslo" "d" ~post:[ "c" ] ~head:"d");
    Insert ("F", [ vi 500; vs "Oslo" ]);
    Flush;
    Submit (rq "e" ~post:[ "nobody" ] ~head:"e");
    Withdraw 4;
    Submit (rq "f" ~post:[ "g" ] ~head:"f");
    Submit (rq ~dest:"Paris" "g" ~post:[] ~head:"g");
    Insert ("F", [ vi 501; vs "Paris" ]);
    Submit (rq "h" ~post:[ "z" ] ~head:"h");
    Flush;
  ]

(* A deterministic two-query coordination: q1 waits, q2 closes the
   cycle and fires the pair. *)
let cycle_pair () =
  (rq "q1" ~post:[ "g1" ] ~head:"g0", rq "q2" ~post:[ "g0" ] ~head:"g1")

let setup_cycle dir =
  let wal, db, engine =
    Durable.create_engine
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  let q1, q2 = cycle_pair () in
  (* The WAL offset and the state after [q] is answered [said]. *)
  let submit q said =
    Alcotest.(check string) said said (submission_repr (Online.submit engine q));
    (Durable.wal_offset wal, observe db engine)
  in
  let b1, state1 = submit q1 "pending" in
  let b2, state2 = submit q2 "fired q1,q2" in
  let seg = Durable.current_segment wal in
  Durable.close wal;
  (seg, b1, b2, state1, state2)

(* Recover [dir] after a fault: the truncation's reason, and the
   state. *)
let recover_torn ~ctx dir =
  let t, db, engine, report = recover_exn ~ctx dir in
  let state = observe db engine in
  Durable.close t;
  rm_rf dir;
  match report.Durable.truncation with
  | Some tr -> (tr.Durable.reason, state)
  | None -> Alcotest.failf "%s: expected a truncation" ctx

(* Cutting between complete records of a multi-record group must drop
   the whole group: a fired set either retires durably or never
   happened — the no-double-spend half of the contract. *)
let test_uncommitted_group () =
  let dir = fresh_dir "uncommitted" in
  let seg, b1, b2, state1, _ = setup_cycle dir in
  let data = read_file seg in
  (* First record of the final group: length prefix + lsn/kind/payload
     + crc. *)
  let payload_len =
    Int32.to_int (String.get_int32_le data b1) land 0xFFFFFFFF
  in
  let cut = b1 + 4 + 8 + 1 + payload_len + 4 in
  Alcotest.(check bool) "cut strictly inside the group" true (cut < b2);
  Disk_fault.apply ~path:seg
    (Disk_fault.Torn_write { keep = cut });
  let reason, state = recover_torn ~ctx:"uncommitted" dir in
  Alcotest.(check string) "reason" "trailing uncommitted group"
    (Durable.corruption_to_string reason);
  Alcotest.check obs_t "whole group dropped" state1 state

(* A garbage length prefix must read as corruption, not as an attempt
   to allocate a 2 GB record. *)
let test_garbage_length () =
  let dir = fresh_dir "garbage-len" in
  let seg, _, _, _, state2 = setup_cycle dir in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 seg in
  output_string oc "\xff\xff\xff\x7fjunkjunkjunkjunkjunk";
  close_out oc;
  let reason, state = recover_torn ~ctx:"garbage-len" dir in
  Alcotest.(check string) "reason" "garbage length prefix"
    (Durable.corruption_to_string reason);
  Alcotest.check obs_t "valid prefix survives" state2 state

(* A flipped byte inside the tail group fails its checksum. *)
let test_bad_crc () =
  let dir = fresh_dir "bad-crc" in
  let seg, b1, b2, state1, _ = setup_cycle dir in
  Disk_fault.apply ~path:seg
    (Disk_fault.Bit_flip { offset = (b1 + b2) / 2; mask = 0x10 });
  let reason, state = recover_torn ~ctx:"bad-crc" dir in
  Alcotest.(check bool) "reason is a checksum or structure failure" true
    (List.mem reason Durable.[ Bad_crc; Bad_length; Short_record ]);
  Alcotest.check obs_t "tail group dropped" state1 state

(* ------------------------- snapshot protocol ---------------------- *)

(* Two forced snapshots, then the newest is corrupted: recovery must
   skip it with a reason and fall back to the older snapshot plus WAL
   replay — bit rot in one snapshot loses nothing. *)
let test_snapshot_fallback () =
  let dir = fresh_dir "snap-fallback" in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  List.iteri
    (fun i op ->
      run wal db engine [ op ];
      if i = 4 || i = 9 then
        snapshot_ok wal)
    trace;
  let live = observe db engine in
  Durable.close wal;
  let snaps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".img")
    |> List.sort String.compare
  in
  Alcotest.(check int) "two snapshots retained" 2 (List.length snaps);
  let newest = Filename.concat dir (List.nth snaps 1) in
  Disk_fault.apply ~path:newest
    (Disk_fault.Bit_flip { offset = 40; mask = 0x01 });
  let t, rdb', rengine', report = recover_exn ~ctx:"snap-fallback" dir in
  Alcotest.(check int)
    "corrupt snapshot skipped" 1
    (List.length report.Durable.snapshots_skipped);
  Alcotest.(check bool)
    "older snapshot loaded" true
    (report.Durable.snapshot_loaded <> None);
  Alcotest.check obs_t "state == live state" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* ---------------- snapshot-write failure injection ---------------- *)

let sorted_files dir = Sys.readdir dir |> Array.to_list |> List.sort String.compare

(* A seam failing [call] with [err] while [armed] holds. *)
let fault ?(armed = ref true) err call c =
  if !armed && c = call then raise (Unix.Unix_error (err, "seam", ""))

(* Two faults: the newer of two snapshots fails validation and the
   segment after the older one is torn.  Recovery loads the older
   snapshot, truncates and checkpoints; then it must delete every other
   file, the corrupt newer snapshot and the segment after the tear
   included, and keep its image and the segment it appends to.  What
   is journaled after it survives the next recovery. *)
let test_double_fault () =
  let dir = fresh_dir "double-fault" in
  let wal, db, _ =
    Durable.create_engine (Durable.config ~snapshot_every:0 dir)
  in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Durable.journal_create_table wal "F" [ "fid"; "dest" ];
  let insert t db i =
    Database.insert db "F" [ vi i; vs "Oslo" ];
    Durable.journal_insert t "F" [ vi i; vs "Oslo" ]
  in
  for i = 1 to 30 do
    insert wal db i;
    if i mod 10 = 0 && i < 30 then ignore (Durable.snapshot wal)
  done;
  Durable.close wal;
  Alcotest.(check (list string)) "two snapshots, two segments"
    [ "snap-00000000000000000012.img"; "snap-00000000000000000022.img";
      "wal-00000000000000000013.log"; "wal-00000000000000000023.log" ]
    (sorted_files dir);
  Disk_fault.apply ~path:(Filename.concat dir "snap-00000000000000000022.img")
    (Disk_fault.Bit_flip { offset = 30; mask = 0x01 });
  Disk_fault.apply ~path:(Filename.concat dir "wal-00000000000000000013.log")
    (Disk_fault.Bit_flip { offset = 200; mask = 0x01 });
  let t, db, engine, report = recover_exn ~ctx:"double-fault" dir in
  Alcotest.(check bool) "newer snapshot skipped, tail truncated" true
    (report.Durable.snapshots_skipped <> [] && report.Durable.truncation <> None);
  let lsn = report.Durable.recovered_lsn in
  Alcotest.(check (list string)) "only the checkpoint and its segment are left"
    [ Printf.sprintf "snap-%020Ld.img" lsn;
      Printf.sprintf "wal-%020Ld.log" (Int64.succ lsn) ]
    (sorted_files dir);
  for i = 31 to 35 do insert t db i done;
  let kept = observe db engine in
  Durable.close t;
  let t, db, engine, _ = recover_exn ~ctx:"double-fault again" dir in
  Alcotest.check obs_t "the second recovery keeps what was journaled" kept
    (observe db engine);
  Durable.close t;
  rm_rf dir

(* A failed snapshot write (full disk, EACCES) must surface as [Error],
   must not rotate the segment, and must not prune the journal it
   failed to supersede — recovery then replays the retained segments
   as if the snapshot was never attempted. *)
let test_snapshot_failure_retains_journal () =
  let dir = fresh_dir "snap-fail" in
  let armed = ref false in
  let io = fault ~armed Unix.EACCES (Durable.Step Durable.Write_tmp) in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 ~io dir)
  in
  seed_store ~wal db;
  let run = run wal db engine in
  run (List.filteri (fun i _ -> i < 6) trace);
  snapshot_ok wal;
  let seg_after_good = Durable.current_segment wal in
  run (List.filteri (fun i _ -> i >= 6) trace);
  let before = sorted_files dir in
  armed := true;
  (match Durable.snapshot wal with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "injected snapshot failure must surface as Error");
  armed := false;
  Alcotest.(check (list string))
    "no rotation, no prune, no partial file" before (sorted_files dir);
  Alcotest.(check string)
    "segment unrotated" seg_after_good
    (Durable.current_segment wal);
  (* A real failure from the writer's system calls: the image's .tmp
     name is taken by a directory, so opening it fails. *)
  let tmp =
    Filename.concat dir
      (Printf.sprintf "snap-%020Ld.img.tmp" (Durable.last_lsn wal))
  in
  Unix.mkdir tmp 0o755;
  (match Durable.snapshot wal with
  | Error why ->
    Alcotest.(check bool) ("open error reported: " ^ why) true
      (contains why "open")
  | Ok () -> Alcotest.fail "a .tmp that cannot be opened must surface as Error");
  Unix.rmdir tmp;
  Alcotest.(check (list string))
    "no rotation, no prune after a real failure" before (sorted_files dir);
  (* The session keeps journaling; recovery replays the retained
     segments exactly. *)
  run [ Insert ("F", [ vi 502; vs "Zurich" ]); Submit (rq "i" ~post:[] ~head:"i") ];
  let live = observe db engine in
  Durable.close wal;
  let t, rdb', rengine', _ = recover_exn ~ctx:"snap-fail" ~clean:true dir in
  Alcotest.check obs_t "recovered == live state" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* Recovery's own checkpoint snapshot failing must not lose state: with
   a clean tail recovery succeeds, reports the failure, and prunes
   nothing — the pre-existing files stay authoritative for the retry. *)
let test_checkpoint_failure_clean_tail () =
  let dir = fresh_dir "ckpt-fail" in
  let _, _, _, _, state2 = setup_cycle dir in
  let before = sorted_files dir in
  let io = fault Unix.EACCES (Durable.Step Durable.Write_tmp) in
  let t, rdb, rengine, report = recover_exn ~ctx:"ckpt-clean" ~io dir in
  (match report.Durable.checkpoint_failed with
  | Some _ -> ()
  | None -> Alcotest.fail "checkpoint failure must be reported");
  Alcotest.check obs_t "clean-tail recovery state intact" state2
    (observe rdb rengine);
  let after = sorted_files dir in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " retained") true (List.mem f after))
    before;
  Durable.close t;
  (* The fault cleared, the same directory checkpoints normally. *)
  let t2, rdb2, rengine2, report2 = recover_exn ~ctx:"ckpt-retry" dir in
  Alcotest.(check bool)
    "retry checkpoint succeeds" true
    (report2.Durable.checkpoint_failed = None);
  Alcotest.check obs_t "retry state stable" state2 (observe rdb2 rengine2);
  Durable.close t2;
  rm_rf dir

(* With a torn tail the checkpoint is what quarantines the corrupt
   bytes; if it cannot be written, recovery must refuse rather than
   append new groups behind bytes a later recovery will truncate. *)
let test_checkpoint_failure_torn_tail () =
  let dir = fresh_dir "ckpt-torn" in
  let seg, b1, b2, _, _ = setup_cycle dir in
  Disk_fault.apply ~path:seg
    (Disk_fault.Bit_flip { offset = (b1 + b2) / 2; mask = 0x10 });
  let io = fault Unix.EACCES (Durable.Step Durable.Write_tmp) in
  (match Durable.recover (Durable.config ~io dir) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn tail + failed checkpoint must refuse");
  let t, _, _, report = recover_exn ~ctx:"ckpt-torn-retry" dir in
  Alcotest.(check bool)
    "truncation quarantined on retry" true
    (report.Durable.truncation <> None);
  Durable.close t;
  rm_rf dir

(* Online.withdraw: a pending entry leaves the pool unsatisfied, double
   or unknown withdrawal is a polite [false], and the journaled
   eviction replays. *)
let test_withdraw_durable () =
  let dir = fresh_dir "withdraw" in
  let wal, db, engine =
    Durable.create_engine
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  let q1, q2 = cycle_pair () in
  let said q = submission_repr (Online.submit engine q) in
  Alcotest.(check string) "q1 pends" "pending" (said q1);
  Alcotest.(check (list bool)) "withdraw live, again, unknown"
    [ true; false; false ]
    (List.map (Online.withdraw engine) [ 0; 0; 999 ]);
  Alcotest.(check int) "pool empty" 0 (Online.pending_count engine);
  Alcotest.(check string) "q2 pends once q1 is withdrawn" "pending" (said q2);
  Alcotest.(check int) "nothing fired" 0 (Online.total_coordinated engine);
  let live = observe db engine in
  Durable.close wal;
  let t, rdb', rengine', _ = recover_exn ~ctx:"withdraw" ~clean:true dir in
  Alcotest.check obs_t "withdrawal replayed" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* A crash mid-snapshot leaves only a .tmp; recovery removes it and
   reports it, losing nothing. *)
let test_tmp_cleanup () =
  let dir = fresh_dir "tmp-clean" in
  let _, _, _, _, state2 = setup_cycle dir in
  let oc = open_out_bin (Filename.concat dir "snap-00000000000000000099.img.tmp") in
  output_string oc "half a snapshot";
  close_out oc;
  let t, rdb, rengine, report = recover_exn ~ctx:"tmp-clean" dir in
  Alcotest.(check (list string))
    "tmp reported" [ "snap-00000000000000000099.img.tmp" ]
    report.Durable.tmp_cleaned;
  Alcotest.check obs_t "state intact" state2 (observe rdb rengine);
  Durable.close t;
  rm_rf dir

(* ------------------------ snapshot in flight ---------------------- *)

let counter name =
  Option.fold ~none:0 ~some:Obs.Counter.value (Obs.Counter.find name)

(* A durable engine whose only groups after set-up are single inserts:
   the meta record, the table and the four seed facts are six groups,
   so with [snapshot_every = 8] the second insert hands a snapshot off,
   and every eighth insert after that. *)
let every = 8

let insert_engine ?io ~fsync dir =
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync ~snapshot_every:every ?io dir)
  in
  seed_store ~wal db;
  (wal, db, engine)

let insert_one wal db engine i =
  run wal db engine [ Insert ("F", [ vi (5000 + i); vs "Paris" ]) ]

(* Insert until a snapshot is handed off, which [Durable.writer_step]
   reveals by running its first step; [armed] is set around each insert
   and that call, so a seam it arms fails a step of the snapshot handed
   off.  The step's name, and the next insert's index. *)
let until_hand_off ?(armed = ref false) wal db engine i =
  let rec go i =
    if i > 100 then Alcotest.fail "no snapshot was handed off";
    armed := true;
    insert_one wal db engine i;
    let step = Durable.writer_step wal in
    armed := false;
    match step with Some step -> (step, i + 1) | None -> go (i + 1)
  in
  go i

let snapshots_in dir =
  List.filter (fun n -> Filename.check_suffix n ".img") (sorted_files dir)

(* A periodic snapshot whose file cannot be written: the writer stops
   at the .tmp write and leaves no file behind; the next journaled
   operation counts the failure and keeps the segment, with nothing
   pruned.  The retry comes a full interval after the failed hand-off,
   succeeds and rotates, and recovery is exact. *)
let test_writer_failure_retries () =
  let dir = fresh_dir "writer-fail" in
  let armed = ref false in
  let io = fault ~armed Unix.EACCES (Durable.Step Durable.Write_tmp) in
  let wal, db, engine = insert_engine ~io ~fsync:Durable.Always dir in
  let before = sorted_files dir and seg = Durable.current_segment wal in
  let failures = counter "wal.snapshot_failures" in
  let step, i = until_hand_off ~armed wal db engine 1 in
  Alcotest.(check string) "the write step failed" "write-tmp" step;
  Alcotest.(check (option string)) "the job ended" None (Durable.writer_step wal);
  Alcotest.(check (list string)) "no file written" before (sorted_files dir);
  insert_one wal db engine i;
  Alcotest.(check int) "failure counted when settled" (failures + 1)
    (counter "wal.snapshot_failures");
  Alcotest.(check string) "segment unrotated" seg (Durable.current_segment wal);
  Alcotest.(check (list string)) "no rotation, no prune" before (sorted_files dir);
  let step, j = until_hand_off wal db engine (i + 1) in
  Alcotest.(check int) "retried a full interval after the hand-off" every
    (j - i);
  Alcotest.(check string) "retry writes" "write-tmp" step;
  while Durable.writer_step wal <> None do () done;
  insert_one wal db engine j;
  Alcotest.(check bool) "retry rotated" true (Durable.current_segment wal <> seg);
  Alcotest.(check int) "retry installed its image" 1
    (List.length (snapshots_in dir));
  let live = observe db engine in
  Durable.close wal;
  let t, rdb', rengine', _ = recover_exn ~ctx:"writer-fail" ~clean:true dir in
  Alcotest.check obs_t "recovered == live state" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* The writer's fsync of the WAL prefix fails: nothing is written, and
   the next journaled operation fails with [Wal_failed], as does every
   one after it.  The WAL still holds every group committed before. *)
let test_wal_sync_failure () =
  let dir = fresh_dir "wal-sync-fail" in
  let armed = ref false in
  let io = fault ~armed Unix.EIO (Durable.Step Durable.Sync_wal) in
  let wal, db, engine = insert_engine ~io ~fsync:Durable.Never dir in
  let before = sorted_files dir in
  let step, i = until_hand_off ~armed wal db engine 1 in
  Alcotest.(check string) "the prefix fsync failed" "wal-fsync" step;
  Alcotest.(check (option string)) "the job ended" None (Durable.writer_step wal);
  Alcotest.(check (list string)) "no file written" before (sorted_files dir);
  let committed = observe db engine in
  List.iter
    (fun k ->
      match Durable.journal_insert wal "F" [ vi (9000 + k); vs "Paris" ] with
      | () -> Alcotest.failf "journaled op %d after a failed WAL fsync" k
      | exception Durable.Wal_failed _ -> ())
    [ i; i + 1 ];
  (match Durable.snapshot wal with
  | _ -> Alcotest.fail "snapshot on a failed handle"
  | exception Durable.Wal_failed _ -> ());
  Durable.close wal;
  let t, rdb', rengine', _ = recover_exn ~ctx:"wal-sync-fail" dir in
  Alcotest.check obs_t "the WAL holds what was committed" committed
    (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* A segment that cannot be opened when the WAL rotates, after a
   forced snapshot or a periodic one, fails the handle: [Wal_failed],
   then again at every journaled operation.  The restart recovers
   exactly what the WAL holds. *)
let test_rotation_open_failure () =
  List.iter
    (fun forced ->
      let dir = fresh_dir "rotate-fail" in
      let armed = ref false in
      let io = fault ~armed Unix.ENOSPC Durable.Segment_create in
      let wal, db, engine = insert_engine ~io ~fsync:Durable.Always dir in
      insert_one wal db engine 0;
      let committed = ref (observe db engine) in
      (* The insert that rotates reaches the store, not the WAL. *)
      let rotate () =
        if forced then ignore (Durable.snapshot wal)
        else begin
          let _, i = until_hand_off wal db engine 1 in
          while Durable.writer_step wal <> None do () done;
          committed := observe db engine;
          insert_one wal db engine i
        end
      in
      armed := true;
      (match rotate () with
      | () -> Alcotest.fail "a rotation without a segment went on"
      | exception Durable.Wal_failed why ->
        Alcotest.(check bool) ("the open is named: " ^ why) true (contains why "wal-"));
      armed := false;
      (match Durable.journal_insert wal "F" [ vi 1; vs "Oslo" ] with
      | () -> Alcotest.fail "journaled after a failed rotation"
      | exception Durable.Wal_failed _ -> ());
      Durable.close wal;
      let t, rdb', rengine', _ = recover_exn ~ctx:"rotate-fail" dir in
      Alcotest.check obs_t "the WAL holds what was committed" !committed
        (observe rdb' rengine');
      Durable.close t;
      rm_rf dir)
    [ true; false ]

(* The failure of a periodic snapshot on the writer thread itself:
   directories squat on the .tmp names of the next images, so the
   thread's open fails.  The journaled operation after the thread has
   ended counts the failure and keeps the segment, with nothing pruned;
   once the squatters are gone a later cadence installs an image and
   rotates, and recovery loads it. *)
let test_writer_thread_failure () =
  let dir = fresh_dir "writer-thread-fail" in
  let wal, db, engine = insert_engine ~fsync:Durable.Always dir in
  let before = sorted_files dir and seg = Durable.current_segment wal in
  let failures = counter "wal.snapshot_failures" in
  let squatters =
    List.init 16 (fun k ->
        Filename.concat dir
          (Printf.sprintf "snap-%020Ld.img.tmp"
             (Int64.add (Durable.last_lsn wal) (Int64.of_int (k + 1)))))
  in
  List.iter (fun p -> Unix.mkdir p 0o755) squatters;
  (* Insert, giving the thread time between inserts, until [cond]. *)
  let rec insert_until what cond i =
    if i > 400 then Alcotest.failf "writer thread: %s never happened" what;
    insert_one wal db engine i;
    if cond () then i + 1
    else begin
      Unix.sleepf 0.001;
      insert_until what cond (i + 1)
    end
  in
  let i =
    insert_until "a failure counted"
      (fun () -> counter "wal.snapshot_failures" > failures)
      1
  in
  Alcotest.(check string) "segment unrotated" seg (Durable.current_segment wal);
  Alcotest.(check (list string))
    "no image, no prune" before
    (List.filter
       (fun n -> not (Filename.check_suffix n ".tmp"))
       (sorted_files dir));
  List.iter Unix.rmdir squatters;
  ignore
    (insert_until "a rotation"
       (fun () -> Durable.current_segment wal <> seg)
       i
      : int);
  Alcotest.(check bool) "an image installed" true (snapshots_in dir <> []);
  let live = observe db engine in
  Durable.close wal;
  let t, rdb', rengine', report =
    recover_exn ~ctx:"writer-thread-fail" ~clean:true dir
  in
  Alcotest.(check bool) "recovered from an image" true
    (report.Durable.snapshot_loaded <> None);
  Alcotest.check obs_t "recovered == live state" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* [close] with a snapshot in flight waits for it: the image is
   installed, nothing rotates, and recovery loads it and replays the
   groups committed after its hand-off from the same segment. *)
let test_close_in_flight () =
  let dir = fresh_dir "close-in-flight" in
  let wal, db, engine = insert_engine ~io:ignore ~fsync:Durable.Always dir in
  let step, i = until_hand_off wal db engine 1 in
  Alcotest.(check string) "hand-off wrote the tmp" "write-tmp" step;
  let lsn = Durable.last_lsn wal in
  insert_one wal db engine i;
  insert_one wal db engine (i + 1);
  let seg = Durable.current_segment wal in
  let live = observe db engine in
  Durable.close wal;
  Alcotest.(check (list string))
    "image installed, segment kept"
    [ Printf.sprintf "snap-%020Ld.img" lsn;
      Filename.basename (Durable.current_segment wal) ]
    (sorted_files dir);
  Alcotest.(check string) "no rotation" seg (Durable.current_segment wal);
  let t, rdb', rengine', report = recover_exn ~ctx:"close-in-flight" ~clean:true dir in
  Alcotest.(check (option int64)) "the image is loaded" (Some lsn)
    (Option.map snd report.Durable.snapshot_loaded);
  Alcotest.(check int) "groups past it replayed" 2
    report.Durable.groups_replayed;
  Alcotest.check obs_t "recovered == live state" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* ------------------------- snapshot cadence ------------------------ *)

(* A segment's header: its magic and first LSN. *)
let segment_header = 16

(* The payload bytes of the image at [lsn] in [dir], installed or still
   a .tmp: its file less the 20-byte header and the 4-byte checksum. *)
let image_payload dir lsn =
  let path = Filename.concat dir (Printf.sprintf "snap-%020Ld.img" lsn) in
  let path = if Sys.file_exists path then path else path ^ ".tmp" in
  (Unix.stat path).Unix.st_size - 24

(* A tuple with a distinct 40-byte string: an image of a few hundred
   outweighs [every] such groups of journal many times over. *)
let wide i = [ vi i; vs (Printf.sprintf "%040d" i) ]

let put wal db i = write_store ~wal db (Insert ("W", wide i))

(* A store of 200 wide tuples behind a forced snapshot. *)
let wide_engine ?io dir =
  let wal, db, engine =
    Durable.create_engine (Durable.config ~snapshot_every:every ?io dir)
  in
  for i = 1 to 200 do
    put wal db i
  done;
  snapshot_ok wal;
  (wal, db, engine)

(* From a hand-off or a recovery of an [image]-byte payload, insert one
   wide tuple a group: the next hand-off must come exactly at the first
   commit where at least [every] groups and [image] bytes of journal
   have been written since.  It must not come at the floor. *)
let check_hand_off_when_due ~ctx wal db ~image =
  let start = Durable.wal_offset wal in
  let rec go groups =
    if groups > 10_000 then Alcotest.failf "%s: no hand-off" ctx;
    put wal db (1000 + groups);
    let written = Durable.wal_offset wal - start in
    let due = groups >= every && written >= image in
    let handed = Durable.writer_step wal <> None in
    Alcotest.(check bool)
      (Printf.sprintf "%s: a hand-off after %d groups, %d of %d bytes" ctx
         groups written image)
      due handed;
    if handed then groups else go (groups + 1)
  in
  let groups = go 1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d groups, past the floor of %d" ctx groups every)
    true (groups > every)

(* The image outweighs [every] groups of journal: no hand-off comes at
   the floor, and one comes as soon as the journal since the last image
   is as large as it. *)
let test_cadence_waits_for_image () =
  let dir = fresh_dir "cadence" in
  let wal, db, _ = wide_engine ~io:ignore dir in
  let image = image_payload dir (Durable.last_lsn wal) in
  check_hand_off_when_due ~ctx:"live" wal db ~image;
  Durable.close wal;
  rm_rf dir

(* A recovered handle's next hand-off waits for a journal as large as
   the recovery checkpoint's image, or, when the checkpoint could not be
   written, as the image recovery loaded (smaller here: groups follow
   it). *)
let test_recovered_image_size () =
  List.iter
    (fun checkpoint_fails ->
      let ctx = Printf.sprintf "checkpoint fails %b" checkpoint_fails in
      let dir = fresh_dir "cadence-recovered" in
      let wal, db, _ = wide_engine dir in
      let loaded = image_payload dir (Durable.last_lsn wal) in
      for i = 201 to 220 do
        put wal db i
      done;
      Durable.close wal;
      let armed = ref checkpoint_fails in
      let io = fault ~armed Unix.ENOSPC (Durable.Step Durable.Write_tmp) in
      match Durable.recover (Durable.config ~snapshot_every:every ~io dir) with
      | Error why -> Alcotest.failf "%s: recover failed: %s" ctx why
      | Ok (wal, db, _, report) ->
        armed := false;
        Alcotest.(check bool) (ctx ^ ": checkpoint failed") checkpoint_fails
          (report.Durable.checkpoint_failed <> None);
        let image =
          if checkpoint_fails then loaded
          else image_payload dir report.Durable.recovered_lsn
        in
        if not checkpoint_fails then
          Alcotest.(check bool) (ctx ^ ": the checkpoint's image is larger") true
            (image > loaded);
        check_hand_off_when_due ~ctx wal db ~image;
        Durable.close wal;
        rm_rf dir)
    [ false; true ]

(* A periodic snapshot that comes due while another is in flight waits
   for it, its counts kept.  The seam holds the first image in flight
   while the journal grows past both conditions and two commits more;
   the first commit after the writer settles hands the next one off,
   and recovery from it is exact. *)
let test_due_in_flight () =
  let dir = fresh_dir "due-in-flight" in
  let wal, db, engine = insert_engine ~io:ignore ~fsync:Durable.Never dir in
  let step, i = until_hand_off wal db engine 0 in
  (* The image's bytes exist once its .tmp is written. *)
  if step = "wal-fsync" then ignore (Durable.writer_step wal : string option);
  let image = image_payload dir (Durable.last_lsn wal) in
  let start = Durable.wal_offset wal in
  let rec hold i groups past_due =
    insert_one wal db engine i;
    let due = groups >= every && Durable.wal_offset wal - start >= image in
    if past_due < 2 then hold (i + 1) (groups + 1) (if due then past_due + 1 else 0)
    else i + 1
  in
  let i = hold i 1 0 in
  let seg = Durable.current_segment wal in
  while Durable.writer_step wal <> None do
    ()
  done;
  insert_one wal db engine i;
  Alcotest.(check bool) "the settle rotated" true (Durable.current_segment wal <> seg);
  Alcotest.(check bool) "the same commit hands the next image off" true
    (Durable.writer_step wal <> None);
  let lsn = Durable.last_lsn wal in
  while Durable.writer_step wal <> None do
    ()
  done;
  let expected = observe db engine in
  Durable.close wal;
  let t, rdb, rengine, report = recover_exn ~ctx:"after the second image" ~clean:true dir in
  Alcotest.(check (option int64)) "the second image is loaded" (Some lsn)
    (Option.map snd report.Durable.snapshot_loaded);
  Alcotest.check obs_t "recovered == live state" expected (observe rdb rengine);
  Durable.close t;
  rm_rf dir

(* One op of a seeded cadence trace. *)
type cadence_op =
  | Put of int option
      (** insert a tuple with a fresh string of this length, or with one
          of four shared ones *)
  | Step  (** run a step of the snapshot in flight *)
  | Drain  (** run the rest of it *)
  | Restart  (** kill the process, its writer with it, and recover *)

let cadence_op_to_string = function
  | Put (Some n) -> Printf.sprintf "put %d" n
  | Put None -> "put shared"
  | Step -> "step"
  | Drain -> "drain"
  | Restart -> "restart"

(* A hand-off the trace has seen, or a recovery checkpoint: its LSN, its
   payload bytes and the groups committed while it was in flight. *)
type hand = { h_lsn : int64; h_image : int; mutable h_inflight : int }

exception Killed

let cadence_every = 3

(* Run [ops] on a durable engine whose snapshots wait for [writer_step]
   ([Step], [Drain]).  A hand-off must come exactly when due: at the
   first commit with no snapshot in flight where the groups and the
   journal bytes since the last image (handed off or recovered) reach
   [snapshot_every] and that image's payload.  After every op, a copy
   of the directory (a crash there) must recover replaying at most what
   durable.mli bounds from the loaded image: max(every groups, its
   payload in bytes and the group that crosses it, one group past those
   committed while it was in flight), then the groups committed since
   the next hand-off. *)
let run_cadence ops =
  let dir = fresh_dir "cadence-seeded" in
  let io = ref ignore in
  let cfg =
    Durable.config ~fsync:Durable.Always ~snapshot_every:cadence_every
      ~io:(fun c -> !io c)
      dir
  in
  let wal, db, _ = Durable.create_engine cfg in
  let h = ref (wal, db) in
  (* Every group as (last LSN, bytes), newest first. *)
  let groups = ref [ (1L, Durable.wal_offset wal - segment_header) ] in
  let hands = ref [ { h_lsn = 0L; h_image = 0; h_inflight = 0 } ] in
  let since_groups = ref 1 and since_bytes = ref (snd (List.hd !groups)) in
  (* The hand-off in flight, and whether its last step has run. *)
  let job = ref None in
  (* An image at [lsn], handed off or checkpointed: the groups and bytes
     since start again. *)
  let image lsn =
    let hand = { h_lsn = lsn; h_image = image_payload dir lsn; h_inflight = 0 } in
    hands := hand :: !hands;
    since_groups := 0;
    since_bytes := 0;
    hand
  in
  let journal f =
    let wal, db = !h in
    let seg = Durable.current_segment wal and off = Durable.wal_offset wal in
    f wal db;
    let base =
      if Durable.current_segment wal = seg then off else segment_header
    in
    let bytes = Durable.wal_offset wal - base in
    groups := (Durable.last_lsn wal, bytes) :: !groups;
    incr since_groups;
    since_bytes := !since_bytes + bytes;
    (match !job with
    | Some (_, true) -> job := None (* this op settled it *)
    | Some (hand, false) -> hand.h_inflight <- hand.h_inflight + 1
    | None -> ());
    if !job = None then begin
      let lsn = Durable.last_lsn wal in
      let last = List.hd !hands in
      let due = !since_groups >= cadence_every && !since_bytes >= last.h_image in
      let step = Durable.writer_step wal in
      if step <> (if due then Some "write-tmp" else None) then
        Alcotest.failf
          "%s at LSN %Ld after %d groups and %d bytes, the last image %d bytes"
          (match step with Some s -> "hand-off (" ^ s ^ ")" | None -> "no hand-off")
          lsn !since_groups !since_bytes last.h_image;
      if due then job := Some (image lsn, false)
    end
  in
  journal (fun wal db ->
      ignore (Database.create_table' db "W" table_attrs);
      Durable.journal_create_table wal "W" table_attrs);
  let step () =
    match !job with
    | Some (hand, false) -> (
      match Durable.writer_step (fst !h) with
      | Some "prune" -> job := Some (hand, true)
      | Some _ -> ()
      | None -> Alcotest.fail "a snapshot in flight had no step left")
    | _ -> ()
  in
  (* The replay bound for a recovery that loaded the image at [s]. *)
  let bound s =
    let hand = List.find (fun h -> h.h_lsn = s) !hands in
    let after l = List.filter (fun (g, _) -> g > l) (List.rev !groups) in
    let rec reach k acc = function
      | _ when acc >= hand.h_image -> k
      | [] -> k
      | (_, b) :: rest -> reach (k + 1) (acc + b) rest
    in
    let cut =
      match List.find_opt (fun h -> h.h_lsn > s) (List.rev !hands) with
      | Some next -> List.length (after next.h_lsn)
      | None -> 0
    in
    let tail = after s in
    ( List.length tail,
      max (hand.h_inflight + 1) (max cadence_every (reach 0 0 tail)) + cut )
  in
  let crash_here i =
    let copy = fresh_dir "cadence-crash" in
    copy_dir dir copy;
    (match Durable.recover (Durable.config copy) with
    | Error why -> Alcotest.failf "op %d: recovery failed: %s" i why
    | Ok (t, _, _, report) ->
      let s = Option.fold ~none:0L ~some:snd report.Durable.snapshot_loaded in
      let tail, most = bound s in
      let replayed = report.Durable.groups_replayed in
      if replayed <> tail || replayed > most then
        Alcotest.failf
          "op %d: from the image at LSN %Ld recovery replayed %d groups (%d \
           after it), the bound is %d"
          i s replayed tail most;
      Durable.close t);
    rm_rf copy
  in
  let fresh = ref 0 in
  List.iteri
    (fun i op ->
      (match op with
      | Put len ->
        incr fresh;
        let s =
          match len with
          | Some n -> String.make n 'x' ^ string_of_int !fresh
          | None -> Printf.sprintf "shared%d" (!fresh mod 4)
        in
        journal (fun wal db ->
            write_store ~wal db (Insert ("W", [ vi !fresh; vs s ])))
      | Step -> step ()
      | Drain ->
        while (match !job with Some (_, false) -> true | _ -> false) do
          step ()
        done
      | Restart -> (
        let wal, _ = !h in
        io := (fun _ -> raise Killed);
        (try Durable.close wal with Killed -> ());
        io := ignore;
        match Durable.recover cfg with
        | Error why -> Alcotest.failf "op %d: restart failed: %s" i why
        | Ok (wal, db, _, report) ->
          h := (wal, db);
          ignore (image report.Durable.recovered_lsn : hand);
          job := None));
      crash_here i)
    ops;
  Durable.close (fst !h);
  rm_rf dir

let cadence_seeded =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| chaos_seed; Hashtbl.hash "cadence" |])
    (QCheck.Test.make ~count:10
       ~name:
         "seeded traces: every hand-off is due, every crash replays within \
          the bound"
       (QCheck.make
          ~print:(fun ops ->
            String.concat "; " (List.map cadence_op_to_string ops))
          QCheck.Gen.(
            list_size (int_range 20 80)
              (frequency
                 [
                   (12, map (fun n -> Put n) (opt (int_range 0 60)));
                   (3, return Step);
                   (2, return Drain);
                   (1, return Restart);
                 ])))
       (fun ops ->
         run_cadence ops;
         true))

(* ------------------------- snapshot bytes -------------------------- *)

(* Every snapshot file's payload equals the reference encoder's
   (test/snapshot_oracle.ml) on seeded stores: values of all three
   kinds mixed within one column, deletes, re-inserts of deleted
   tuples, compactions and an empty table, beside a pool of pending
   queries.  Deletes go to the store directly, unjournaled, so this
   case checks bytes and recovers nothing. *)
let test_snapshot_bytes () =
  let dir = fresh_dir "snap-bytes" in
  let wal, db, engine =
    Durable.create_engine
      (Durable.config ~fsync:Durable.Never ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  List.iter
    (fun (name, attrs) ->
      ignore (Database.create_table' db name attrs);
      Durable.journal_create_table wal name attrs)
    [ ("A", [ "x"; "y" ]); ("B", [ "x" ]); ("E", [ "x"; "y"; "z" ]) ];
  let rng = Prng.create chaos_seed in
  let value () =
    match Prng.int rng 3 with
    | 0 -> Value.Int (Prng.int rng 40 - 10)
    | 1 -> Value.Str (Prng.pick rng [ "a"; "b"; "Zurich"; "two words"; ""; "O'Brien" ])
    | _ -> Value.Bool (Prng.bool rng)
  in
  let rel name = Database.relation db name in
  let deleted = ref [] in
  let delete name t =
    if Relation.delete (rel name) t then deleted := (name, t) :: !deleted
  in
  let snapshots = ref 0 in
  let check_bytes ctx =
    snapshot_ok wal;
    incr snapshots;
    let file =
      Filename.concat dir (Printf.sprintf "snap-%020Ld.img" (Durable.last_lsn wal))
    in
    let data = read_file file in
    let got = Snapshot_oracle.payload_of_file data in
    let want = Snapshot_oracle.encode ~db engine in
    if got <> want then
      Alcotest.failf "%s: %d payload bytes differ from the reference's %d" ctx
        (String.length got) (String.length want);
    (* The writer thread took the image's checksum in C. *)
    let payload = Bytes.of_string got in
    Alcotest.(check int)
      (ctx ^ ": stored checksum is the reference CRC")
      (Crc32_oracle.bytes payload 0 (Bytes.length payload))
      (Int32.to_int (String.get_int32_le data (String.length data - 4))
      land 0xFFFFFFFF);
    Alcotest.(check int) (ctx ^ ": Crc32 on the image")
      (Crc32_oracle.bytes payload 0 (Bytes.length payload))
      (Durable.Crc32.string got)
  in
  for i = 1 to 400 do
    let ctx = Printf.sprintf "op %d" i in
    let name = Prng.pick rng [ "A"; "B" ] in
    (match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let t = if name = "A" then [ value (); value () ] else [ value () ] in
      Database.insert db name t;
      Durable.journal_insert wal name t
    | 4 | 5 | 6 -> (
      match Relation.to_list (rel name) with
      | [] -> ()
      | ts -> delete name (Prng.pick rng ts))
    | 7 | 8 -> (
      match !deleted with
      | [] -> ()
      | ds ->
        let name, t = Prng.pick rng ds in
        Database.insert db name (Array.to_list t);
        Durable.journal_insert wal name (Array.to_list t))
    | _ -> ignore (Online.submit engine (random_query (Prng.int rng) i)));
    (* Most of a table at once: the store compacts. *)
    if i mod 150 = 0 then
      List.iteri (fun k t -> if k > 0 then delete "A" t) (Relation.to_list (rel "A"));
    if i mod 20 = 0 then check_bytes ctx
  done;
  Alcotest.(check bool) "the pool was snapshotted" true
    (Online.pending_entries engine <> []);
  Alcotest.(check int) "E stays empty" 0 (Relation.cardinal (rel "E"));
  Alcotest.(check int) "snapshots checked" 20 !snapshots;
  Durable.close wal;
  rm_rf dir

(* An image an older writer left (version 1, [Snapshot_oracle.encode_v1]:
   tuples sorted, values in a dictionary) still recovers.  Here it
   stands in for a forced snapshot, with groups after it: recovery must
   load it, skip nothing, replay the rest to the live state, and write
   its checkpoint in the current version, as the reference encodes the
   recovered store. *)
let test_v1_image_recovers () =
  let dir = fresh_dir "v1-image" in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  (* Out of key order, so the sorted image differs from row order. *)
  List.iter (fun f -> write_store ~wal db (Insert ("F", [ vi f; vs "Rome" ]))) [ 90; 60 ];
  let half = List.length trace / 2 in
  run wal db engine (List.filteri (fun i _ -> i < half) trace);
  snapshot_ok wal;
  let lsn = Durable.last_lsn wal in
  let name = Printf.sprintf "snap-%020Ld.img" lsn in
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc
    (Snapshot_oracle.image ~magic:"EWALSNP1" ~lsn
       (Snapshot_oracle.encode_v1 ~db engine));
  close_out oc;
  run wal db engine (List.filteri (fun i _ -> i >= half) trace);
  let expected = observe db engine in
  Durable.close wal;
  let t, rdb, rengine, report = recover_exn ~ctx:"v1 image" ~clean:true dir in
  Alcotest.(check (option (pair string int64))) "the v1 image is loaded"
    (Some (name, lsn)) report.Durable.snapshot_loaded;
  Alcotest.(check (list (pair string string))) "no image skipped" []
    report.Durable.snapshots_skipped;
  Alcotest.(check bool) "groups past it replayed" true
    (report.Durable.groups_replayed > 0);
  Alcotest.check obs_t "recovered == live state" expected (observe rdb rengine);
  let checkpoint =
    read_file
      (Filename.concat dir
         (Printf.sprintf "snap-%020Ld.img" report.Durable.recovered_lsn))
  in
  Alcotest.(check string) "the checkpoint is version 2" "EWALSNP2"
    (String.sub checkpoint 0 8);
  if Snapshot_oracle.payload_of_file checkpoint <> Snapshot_oracle.encode ~db:rdb rengine
  then Alcotest.fail "the checkpoint's payload differs from the reference's";
  Durable.close t;
  rm_rf dir

(* ------------------------ unit-level checks ----------------------- *)

let test_crc32_vector () =
  Alcotest.(check int) "check value" 0xCBF43926 (Durable.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Durable.Crc32.string "");
  (* Eight bytes a step must agree with the textbook byte at a time, at
     every alignment and length, continued or not. *)
  let bytewise ?(crc = 0) b off len =
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = off to off + len - 1 do
      c := !c lxor Char.code (Bytes.get b i);
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF
  in
  let rng = Prng.create chaos_seed in
  let b = Bytes.init 300 (fun _ -> Char.chr (Prng.int rng 256)) in
  for off = 0 to 9 do
    for len = 0 to 290 do
      let crc = if len mod 3 = 0 then 0 else Prng.int rng 0xFFFFFFFF in
      if bytewise ~crc b off len <> Durable.Crc32.bytes ~crc b off len then
        Alcotest.failf "crc32 off %d len %d differs from the bytewise one" off len
    done
  done

(* The C checksum against the OCaml slicing-by-8 it replaced, on random
   ranges of random bytes, continued from a random running value. *)
let crc32_matches_oracle =
  qtest ~count:2000 "crc32 equals the OCaml reference"
    QCheck.(
      make
        ~print:(fun (s, off, len, crc) ->
          Printf.sprintf "%S off %d len %d crc %d" s off len crc)
        Gen.(
          let* len = int_range 0 300 in
          let* off = int_range 0 9 in
          let* slack = int_range 0 3 in
          let* s = string_size ~gen:char (return (off + len + slack)) in
          let* crc = oneof [ return 0; int_range 0 0xFFFFFFFF ] in
          return (s, off, len, crc)))
    (fun (s, off, len, crc) ->
      let b = Bytes.of_string s in
      Durable.Crc32.bytes ~crc b off len = Crc32_oracle.bytes ~crc b off len)

let test_fsync_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Durable.fsync_policy_to_string p)
        true
        (Durable.fsync_policy_of_string (Durable.fsync_policy_to_string p)
        = Some p))
    [ Durable.Always; Durable.Never; Durable.Every_n 1; Durable.Every_n 64 ];
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Durable.fsync_policy_of_string s = None))
    [ "sometimes"; "every-n:0"; "every-n:-3"; "every-n:"; "every-n:x" ]

let test_create_refuses_existing () =
  let dir = fresh_dir "refuse" in
  let wal, _, _ = Durable.create_engine (Durable.config dir) in
  Durable.close wal;
  (match Durable.create_engine (Durable.config dir) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create_engine must refuse an existing WAL");
  rm_rf dir

let test_recover_empty_dir () =
  let dir = fresh_dir "empty" in
  (match Durable.recover (Durable.config dir) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recover of an empty dir must be an Error");
  rm_rf dir;
  match Durable.recover (Durable.config (Filename.concat scratch_base "ewal-nonexistent")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recover of a missing dir must be an Error"

(* The relaxed fsync policies journal the same bytes — only the sync
   cadence differs — so recovery from a flushed file is identical. *)
let test_fsync_policies_recover () =
  List.iter
    (fun fsync ->
      let dir = fresh_dir "policy" in
      let wal, db, engine =
        Durable.create_engine (Durable.config ~fsync ~snapshot_every:3 dir)
      in
      seed_store ~wal db;
      run wal db engine trace;
      let live = observe db engine in
      Durable.close wal;
      let t, rdb', rengine', _ =
        recover_exn ~ctx:(Durable.fsync_policy_to_string fsync) dir
      in
      Alcotest.check obs_t
        (Durable.fsync_policy_to_string fsync)
        live (observe rdb' rengine');
      Durable.close t;
      rm_rf dir)
    [ Durable.Never; Durable.Every_n 2 ]

let test_open_or_recover () =
  let dir = fresh_dir "open-or" in
  (match Durable.open_or_recover (Durable.config dir) with
  | Ok (t, db, engine, None) ->
    seed_store ~wal:t db;
    let q1, q2 = cycle_pair () in
    ignore (Online.submit engine q1);
    ignore (Online.submit engine q2);
    Durable.close t
  | Ok (_, _, _, Some _) -> Alcotest.fail "fresh dir must not recover"
  | Error msg -> Alcotest.fail msg);
  (match Durable.open_or_recover (Durable.config dir) with
  | Ok (t, _, engine, Some report) ->
    Alcotest.(check bool)
      "clean tail" true
      (report.Durable.truncation = None);
    Alcotest.(check int) "pair fired" 2 (Online.total_coordinated engine);
    Durable.close t
  | Ok (_, _, _, None) -> Alcotest.fail "existing dir must recover"
  | Error msg -> Alcotest.fail msg);
  rm_rf dir

(* A segment that cannot be created is an [Error] from
   [open_or_recover], for a fresh directory and after a recovery
   checkpoint alike; the retry recovers from the checkpoint image. *)
let test_segment_create_failure () =
  let dir = fresh_dir "create-fail" in
  let io = fault Unix.ENOSPC Durable.Segment_create in
  let open_dir ?io () = Durable.open_or_recover (Durable.config ?io dir) in
  let refused what =
    match open_dir ~io () with
    | Error why -> Alcotest.(check bool) ("named: " ^ why) true (contains why "wal-")
    | Ok _ -> Alcotest.fail what
  in
  refused "a fresh engine without a segment";
  let seeded =
    match open_dir () with
    | Ok (t, db, engine, None) ->
      seed_store ~wal:t db;
      Durable.close t;
      observe db engine
    | _ -> Alcotest.fail "a fresh engine once the fault cleared"
  in
  refused "a recovery without a segment";
  let t, db, engine, _ = recover_exn ~ctx:"create-fail retry" dir in
  Alcotest.check obs_t "the retry recovers the store" seeded (observe db engine);
  Durable.close t;
  rm_rf dir

(* The engine meta is the first four payload bytes of the Meta record
   and of each snapshot: backend, eager, consume, selection.
   [set_meta_byte dir ~at v] rewrites byte [at] to [v] in every file of
   [dir] and re-checksums what it touched. *)
let set_meta_byte dir ~at v =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let data = Bytes.of_string (read_file path) in
      let set_crc off ~from ~len =
        Bytes.set_int32_le data off
          (Int32.of_int (Durable.Crc32.bytes data from len))
      in
      if Filename.check_suffix name ".img" then begin
        (* magic 8 | lsn 8 | payload_len 4 | payload | crc 4 *)
        let len = Bytes.length data - 24 in
        Bytes.set_uint8 data (20 + at) v;
        set_crc (20 + len) ~from:20 ~len
      end
      else begin
        (* header 16, then per record:
           payload_len 4 | lsn 8 | kind 1 | payload | crc 4 *)
        let pos = ref 16 in
        while !pos < Bytes.length data do
          let len = Int32.to_int (Bytes.get_int32_le data !pos) in
          let body = !pos + 4 in
          if Bytes.get_uint8 data (body + 8) land 0x7f = 0 then begin
            Bytes.set_uint8 data (body + 9 + at) v;
            set_crc (body + 9 + len) ~from:body ~len:(9 + len)
          end;
          pos := body + 9 + len + 4
        done
      end;
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc)
    (Sys.readdir dir)

(* Today's writers put backend 0, eager 1 and selection 0 (largest).
   Files written by earlier engines carry backend 1 (a columnar mirror
   of the row store), or eager 0 and selection 1 (evaluation deferred
   to [flush], first-found selection).  A Meta record or a snapshot
   with either recovers to the same pool, ids, satisfied count and
   store, since replay never evaluates; a backend byte no writer ever
   produced is a typed decode failure. *)
let test_backend_byte_compat () =
  let dir = fresh_dir "compat" in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  run wal db engine trace;
  let expected = observe db engine in
  Alcotest.(check bool) "something coordinated" true (expected.o_satisfied > 0);
  (* [wal_only] and [bad] hold the Meta record; after the forced
     snapshot [dir] holds only the snapshot and an empty segment. *)
  let wal_only = fresh_dir "compat-wal" and bad = fresh_dir "compat-bad" in
  copy_dir dir wal_only;
  copy_dir dir bad;
  snapshot_ok wal;
  Durable.close wal;
  (* segment header 16 | payload_len 4 | lsn 8 | kind 1 | Meta payload *)
  Alcotest.(check string)
    "fresh meta: backend 0, eager 1, consume 1, selection 0"
    "\000\001\001\000"
    (String.sub (read_file (Filename.concat bad (Sys.readdir bad).(0))) 29 4);
  List.iter
    (fun flips ->
      List.iter
        (fun (label, src) ->
          let d = fresh_dir "compat-old" in
          copy_dir src d;
          List.iter (fun (at, v) -> set_meta_byte d ~at v) flips;
          let t, rdb', rengine', _ = recover_exn ~ctx:label ~clean:true d in
          Alcotest.check obs_t (label ^ ": recovered == original") expected
            (observe rdb' rengine');
          Durable.close t;
          rm_rf d)
        [ ("meta record", wal_only); ("snapshot", dir) ])
    [ [ (0, 1) ]; [ (1, 0); (3, 1) ] ];
  set_meta_byte bad ~at:0 2;
  (match Durable.recover (Durable.config bad) with
  | Ok _ -> Alcotest.fail "backend byte 2 must not recover"
  | Error msg ->
    let needle = Durable.corruption_to_string Durable.Bad_payload in
    if not (contains msg needle) then Alcotest.failf "expected %S in %S" needle msg);
  List.iter rm_rf [ dir; wal_only; bad ]

(* Earlier writers closed each flush and submit_all group with a kind-5
   trailer (op u8, fired u32) that recovery never applied.  A segment
   holding one still recovers, to the same state: here the last group
   of a trace gets such a trailer as its committing record, checksummed
   with the exported CRC. *)
let test_kind5_trailer_compat () =
  let dir = fresh_dir "kind5" in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  run wal db engine trace;
  let expected = observe db engine in
  Durable.close wal;
  let segment =
    List.find (fun f -> Filename.check_suffix f ".log") (Array.to_list (Sys.readdir dir))
  in
  let path = Filename.concat dir segment in
  let data = Bytes.of_string (read_file path) in
  (* header 16, then per record:
     payload_len 4 | lsn 8 | kind 1 | payload | crc 4 *)
  let rec last_record pos =
    let next = pos + 4 + 9 + Int32.to_int (Bytes.get_int32_le data pos) + 4 in
    if next >= Bytes.length data then pos else last_record next
  in
  let last = last_record 16 in
  let len = Int32.to_int (Bytes.get_int32_le data last) in
  let body = last + 4 in
  Bytes.set_uint8 data (body + 8) (Bytes.get_uint8 data (body + 8) land 0x7f);
  Bytes.set_int32_le data (body + 9 + len)
    (Int32.of_int (Durable.Crc32.bytes data body (9 + len)));
  let trailer = Bytes.create (4 + 9 + 5 + 4) in
  Bytes.set_int32_le trailer 0 5l;
  Bytes.set_int64_le trailer 4 (Int64.succ (Bytes.get_int64_le data body));
  Bytes.set_uint8 trailer 12 (0x80 lor 5);
  Bytes.set_uint8 trailer 13 2;
  Bytes.set_int32_le trailer 14 1l;
  Bytes.set_int32_le trailer 18
    (Int32.of_int (Durable.Crc32.bytes trailer 4 14));
  let oc = open_out_bin path in
  output_bytes oc data;
  output_bytes oc trailer;
  close_out oc;
  let t, rdb, rengine, _ = recover_exn ~ctx:"kind-5 trailer" ~clean:true dir in
  Alcotest.check obs_t "recovered == original" expected (observe rdb rengine);
  Durable.close t;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "crc32 known vector" `Quick test_crc32_vector;
    Alcotest.test_case "fsync policy strings round-trip" `Quick
      test_fsync_policy_strings;
    Alcotest.test_case "create_engine refuses an existing WAL" `Quick
      test_create_refuses_existing;
    Alcotest.test_case "recover needs some valid state" `Quick
      test_recover_empty_dir;
    Alcotest.test_case "open_or_recover round trip" `Quick test_open_or_recover;
    Alcotest.test_case "backend byte 1 recovers onto the row store" `Quick
      test_backend_byte_compat;
    Alcotest.test_case "relaxed fsync policies recover equally" `Quick
      test_fsync_policies_recover;
    Alcotest.test_case "uncommitted group is dropped whole" `Quick
      test_uncommitted_group;
    Alcotest.test_case "garbage length prefix is typed corruption" `Quick
      test_garbage_length;
    Alcotest.test_case "bit flip fails the checksum" `Quick test_bad_crc;
    Alcotest.test_case "corrupt snapshot falls back to the previous one"
      `Quick test_snapshot_fallback;
    Alcotest.test_case "a checkpoint after two faults keeps the WAL" `Quick
      test_double_fault;
    Alcotest.test_case "failed snapshot surfaces and retains the journal"
      `Quick test_snapshot_failure_retains_journal;
    Alcotest.test_case "failed recovery checkpoint keeps old files (clean tail)"
      `Quick test_checkpoint_failure_clean_tail;
    Alcotest.test_case "failed recovery checkpoint refuses on a torn tail"
      `Quick test_checkpoint_failure_torn_tail;
    Alcotest.test_case "withdraw retires nothing and replays" `Quick
      test_withdraw_durable;
    Alcotest.test_case "interrupted snapshot tmp is cleaned" `Quick
      test_tmp_cleanup;
    Alcotest.test_case "failed periodic snapshot: no rotation, retried later"
      `Quick test_writer_failure_retries;
    Alcotest.test_case "failed WAL-prefix fsync fails the next journaled op"
      `Quick test_wal_sync_failure;
    Alcotest.test_case "a segment open failing at rotation fails the handle"
      `Quick test_rotation_open_failure;
    Alcotest.test_case "a segment that cannot be created is an Error" `Quick
      test_segment_create_failure;
    Alcotest.test_case "failed periodic snapshot on the writer thread" `Quick
      test_writer_thread_failure;
    Alcotest.test_case "close waits for the snapshot in flight" `Quick
      test_close_in_flight;
    Alcotest.test_case "cadence waits for an image's worth of WAL" `Quick
      test_cadence_waits_for_image;
    Alcotest.test_case "a recovered handle keeps its image's size" `Quick
      test_recovered_image_size;
    Alcotest.test_case "a snapshot due in flight hands off once it settles"
      `Quick test_due_in_flight;
    cadence_seeded;
    Alcotest.test_case "snapshot bytes equal the reference encoder's" `Quick
      test_snapshot_bytes;
    Alcotest.test_case "a version-1 image recovers and checkpoints as version 2"
      `Quick test_v1_image_recovers;
    Alcotest.test_case "a kind-5 trailer from an older writer recovers" `Quick
      test_kind5_trailer_compat;
    crc32_matches_oracle;
  ]
