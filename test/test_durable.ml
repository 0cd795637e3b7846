(* The durability layer's honesty contract, checked differentially.

   A durable engine journals every operation through a checksummed WAL
   (lib/durable); a never-crashed reference engine runs the same seeded
   trace with no WAL at all.  At every operation boundary we simulate a
   crash — copy the WAL directory aside — and later recover from the
   copy: the recovered pool (ids and names), component partition,
   satisfied count and store contents must equal the reference's state
   at exactly that boundary, with and without consume.  Torn, partial
   and bit-flipped tails (seeded through Resilient.Disk_fault) must
   recover to the previous boundary with a typed truncation report —
   never an exception, never a double-spent tuple.  CHAOS_SEED sweeps
   the trace seed in CI; CHAOS_WAL_DIR relocates the scratch space
   (failures leave it behind for artifact upload). *)

open Relational
open Helpers
module Online = Coordination.Online

(* A durable side and a plain reference side run the same setup: the
   schema and seed facts flow through the journal on the durable side
   so recovery can rebuild them. *)
let seed_store ?wal db =
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  (match wal with
  | Some t -> Durable.journal_create_table t "F" [ "fid"; "dest" ]
  | None -> ());
  List.iter
    (fun (f, d) ->
      Database.insert db "F" [ vi f; vs d ];
      match wal with
      | Some t -> Durable.journal_insert t "F" [ vi f; vs d ]
      | None -> ())
    seed_facts

let apply_op ?wal db engine = function
  | Submit q -> ignore (Online.submit engine q)
  | Flush -> ignore (Online.flush engine)
  | Insert (fid, dest) ->
    Database.insert db "F" [ vi fid; vs dest ];
    (match wal with
    | Some t -> Durable.journal_insert t "F" [ vi fid; vs dest ]
    | None -> ())

let mk_reference ~consume =
  let db = Database.create () in
  let engine = Online.create ~consume db in
  seed_store db;
  (db, engine)

let recover_exn ?(ctx = "") dir =
  match Durable.recover (Durable.config dir) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: recover failed: %s" ctx msg

(* ---------------- crash points at every op boundary --------------- *)

(* Run a trace on a durable engine (periodic snapshots armed) next to
   the reference, copying the WAL directory at every operation
   boundary; then recover every copy and demand state equality with the
   reference at that boundary. *)
let run_crash_points ~seed ~consume () =
  let tag = Printf.sprintf "cp-%b" consume in
  let dir = fresh_dir tag in
  let trace = gen_trace (Prng.create seed) 12 in
  let wal, db, engine =
    Durable.create_engine ~consume
      (Durable.config ~fsync:Durable.Always ~snapshot_every:4 dir)
  in
  seed_store ~wal db;
  let rdb, rengine = mk_reference ~consume in
  let copies = ref [] in
  let states = ref [] in
  let checkpoint k =
    let copy = fresh_dir (Printf.sprintf "%s-k%d" tag k) in
    copy_dir dir copy;
    copies := (k, copy) :: !copies;
    states := (k, observe rdb rengine) :: !states;
    Alcotest.check obs_t
      (Printf.sprintf "%s step %d: live == reference" tag k)
      (observe rdb rengine) (observe db engine)
  in
  checkpoint 0;
  List.iteri
    (fun i op ->
      apply_op ~wal db engine op;
      apply_op rdb rengine op;
      checkpoint (i + 1))
    trace;
  (* Recover every crash point; the recovered state must sit exactly on
     that operation boundary. *)
  List.iter
    (fun (k, copy) ->
      let t, rdb', rengine', report =
        recover_exn ~ctx:(Printf.sprintf "%s k%d" tag k) copy
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s k%d: clean tail" tag k)
        true
        (report.Durable.truncation = None);
      Alcotest.check obs_t
        (Printf.sprintf "%s k%d: recovered == reference" tag k)
        (List.assoc k !states) (observe rdb' rengine');
      Durable.close t;
      rm_rf copy)
    !copies;
  (* Continuation equivalence: a recovered engine must behave like the
     never-crashed reference from here on. *)
  let n = List.length trace in
  let final = fresh_dir (tag ^ "-final") in
  copy_dir dir final;
  let t, rdb', rengine', _ = recover_exn ~ctx:(tag ^ " final") final in
  let more = gen_trace (Prng.create (seed + 1)) 6 in
  List.iter
    (fun op ->
      apply_op ~wal:t rdb' rengine' op;
      apply_op rdb rengine op)
    more;
  Alcotest.check obs_t
    (Printf.sprintf "%s: continuation after recovery (n=%d)" tag n)
    (observe rdb rengine) (observe rdb' rengine');
  Durable.close t;
  Durable.close wal;
  rm_rf final;
  rm_rf dir

(* The consume modes both differentials run over. *)
let modes = [ false; true ]

let test_crash_points () =
  List.iter
    (fun consume -> run_crash_points ~seed:chaos_seed ~consume ())
    modes

(* --------------------- torn and corrupt tails --------------------- *)

(* Same trace discipline, snapshots off so the whole history lives in
   one segment, recording the byte span each operation appended.  Then
   for every op we corrupt a copy inside that op's span (seeded torn
   write / lost tail / bit flip) and recover: the result must be the
   state one boundary earlier, reported as a truncation, never an
   exception. *)
let run_torn_tails ~seed ~consume () =
  let tag = Printf.sprintf "torn-%b" consume in
  let dir = fresh_dir tag in
  let trace = gen_trace (Prng.create seed) 12 in
  let wal, db, engine =
    Durable.create_engine ~consume
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  let rdb, rengine = mk_reference ~consume in
  let states = ref [ (0, observe rdb rengine) ] in
  let offsets = ref [ (0, Durable.wal_offset wal) ] in
  List.iteri
    (fun i op ->
      apply_op ~wal db engine op;
      apply_op rdb rengine op;
      states := (i + 1, observe rdb rengine) :: !states;
      offsets := (i + 1, Durable.wal_offset wal) :: !offsets)
    trace;
  let seg_name = Filename.basename (Durable.current_segment wal) in
  Durable.close wal;
  let frng = Prng.create (seed * 7919) in
  List.iteri
    (fun i _ ->
      let k = i + 1 in
      let before = List.assoc (k - 1) !offsets in
      let after = List.assoc k !offsets in
      if after > before then begin
        let copy = fresh_dir (Printf.sprintf "%s-k%d" tag k) in
        copy_dir dir copy;
        let fault = Resilient.Disk_fault.draw frng ~protect:before ~size:after in
        Resilient.Disk_fault.apply ~path:(Filename.concat copy seg_name) fault;
        let t, rdb', rengine', report =
          recover_exn ~ctx:(Printf.sprintf "%s k%d" tag k) copy
        in
        Alcotest.check obs_t
          (Format.asprintf "%s k%d (%a): recovered == previous boundary" tag k
             Resilient.Disk_fault.pp fault)
          (List.assoc (k - 1) !states)
          (observe rdb' rengine');
        (match fault with
        | Resilient.Disk_fault.Lost_tail _ ->
          (* Cut exactly on the boundary: a clean (shorter) tail. *)
          ()
        | _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s k%d: truncation reported" tag k)
            true
            (report.Durable.truncation <> None));
        Durable.close t;
        (* Recovering a recovered directory must be stable: same state,
           clean tail (the checkpoint quarantined the torn bytes). *)
        let t2, rdb2, rengine2, report2 =
          recover_exn ~ctx:(Printf.sprintf "%s k%d again" tag k) copy
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s k%d: second recovery clean" tag k)
          true
          (report2.Durable.truncation = None);
        Alcotest.check obs_t
          (Printf.sprintf "%s k%d: second recovery stable" tag k)
          (observe rdb' rengine') (observe rdb2 rengine2);
        Durable.close t2;
        rm_rf copy
      end)
    trace;
  rm_rf dir

let test_torn_tails () =
  List.iter
    (fun consume -> run_torn_tails ~seed:chaos_seed ~consume ())
    modes

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
  let boundary0 = Durable.wal_offset wal in
  (match Online.submit engine q1 with
  | Online.Pending -> ()
  | r ->
    Alcotest.failf "q1 should pend, got %s"
      (match r with
      | Online.Coordinated _ -> "coordinated"
      | Online.Rejected_unsafe _ -> "rejected"
      | Online.Pending -> "pending"));
  let boundary1 = Durable.wal_offset wal in
  let state1 = observe db engine in
  (match Online.submit engine q2 with
  | Online.Coordinated _ -> ()
  | _ -> Alcotest.fail "q2 should fire the pair");
  let boundary2 = Durable.wal_offset wal in
  let state2 = observe db engine in
  let seg = Durable.current_segment wal in
  Durable.close wal;
  (seg, boundary0, boundary1, boundary2, state1, state2)

(* Cutting between complete records of a multi-record group must drop
   the whole group: a fired set either retires durably or never
   happened — the no-double-spend half of the contract. *)
let test_uncommitted_group () =
  let dir = fresh_dir "uncommitted" in
  let seg, _, b1, b2, state1, _ = setup_cycle dir in
  let data = read_file seg in
  (* First record of the final group: length prefix + lsn/kind/payload
     + crc. *)
  let payload_len =
    Int32.to_int (String.get_int32_le data b1) land 0xFFFFFFFF
  in
  let cut = b1 + 4 + 8 + 1 + payload_len + 4 in
  Alcotest.(check bool) "cut strictly inside the group" true (cut < b2);
  Resilient.Disk_fault.apply ~path:seg
    (Resilient.Disk_fault.Torn_write { keep = cut });
  let t, rdb, rengine, report = recover_exn ~ctx:"uncommitted" dir in
  (match report.Durable.truncation with
  | Some tr ->
    Alcotest.(check string)
      "reason" "trailing uncommitted group"
      (Durable.corruption_to_string tr.Durable.reason)
  | None -> Alcotest.fail "expected a truncation");
  Alcotest.check obs_t "whole group dropped" state1 (observe rdb rengine);
  Durable.close t;
  rm_rf dir

(* A garbage length prefix must read as corruption, not as an attempt
   to allocate a 2 GB record. *)
let test_garbage_length () =
  let dir = fresh_dir "garbage-len" in
  let seg, _, _, _, _, state2 = setup_cycle dir in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 seg in
  output_string oc "\xff\xff\xff\x7fjunkjunkjunkjunkjunk";
  close_out oc;
  let t, rdb, rengine, report = recover_exn ~ctx:"garbage-len" dir in
  (match report.Durable.truncation with
  | Some tr ->
    Alcotest.(check string)
      "reason" "garbage length prefix"
      (Durable.corruption_to_string tr.Durable.reason)
  | None -> Alcotest.fail "expected a truncation");
  Alcotest.check obs_t "valid prefix survives" state2 (observe rdb rengine);
  Durable.close t;
  rm_rf dir

(* A flipped byte inside the tail group fails its checksum. *)
let test_bad_crc () =
  let dir = fresh_dir "bad-crc" in
  let seg, _, b1, b2, state1, _ = setup_cycle dir in
  Resilient.Disk_fault.apply ~path:seg
    (Resilient.Disk_fault.Bit_flip { offset = (b1 + b2) / 2; mask = 0x10 });
  let t, rdb, rengine, report = recover_exn ~ctx:"bad-crc" dir in
  (match report.Durable.truncation with
  | Some tr ->
    Alcotest.(check bool)
      "reason is a checksum or structure failure" true
      (tr.Durable.reason = Durable.Bad_crc
      || tr.Durable.reason = Durable.Bad_length
      || tr.Durable.reason = Durable.Short_record)
  | None -> Alcotest.fail "expected a truncation");
  Alcotest.check obs_t "tail group dropped" state1 (observe rdb rengine);
  Durable.close t;
  rm_rf dir

(* ------------------------- snapshot protocol ---------------------- *)

(* Two forced snapshots, then the newest is corrupted: recovery must
   skip it with a reason and fall back to the older snapshot plus WAL
   replay — bit rot in one snapshot loses nothing. *)
let test_snapshot_fallback () =
  let dir = fresh_dir "snap-fallback" in
  let trace = gen_trace (Prng.create chaos_seed) 15 in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  let rdb, rengine = mk_reference ~consume:true in
  List.iteri
    (fun i op ->
      apply_op ~wal db engine op;
      apply_op rdb rengine op;
      if i = 4 || i = 9 then
        match Durable.snapshot wal with
        | Ok () -> ()
        | Error why -> Alcotest.failf "snapshot failed: %s" why)
    trace;
  Durable.close wal;
  let snaps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".img")
    |> List.sort String.compare
  in
  Alcotest.(check int) "two snapshots retained" 2 (List.length snaps);
  let newest = Filename.concat dir (List.nth snaps 1) in
  Resilient.Disk_fault.apply ~path:newest
    (Resilient.Disk_fault.Bit_flip { offset = 40; mask = 0x01 });
  let t, rdb', rengine', report = recover_exn ~ctx:"snap-fallback" dir in
  Alcotest.(check int)
    "corrupt snapshot skipped" 1
    (List.length report.Durable.snapshots_skipped);
  Alcotest.(check bool)
    "older snapshot loaded" true
    (report.Durable.snapshot_loaded <> None);
  Alcotest.check obs_t "state == reference" (observe rdb rengine)
    (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* ---------------- snapshot-write failure injection ---------------- *)

let eacces = Unix.Unix_error (Unix.EACCES, "open", "snap")
let sorted_files dir = Sys.readdir dir |> Array.to_list |> List.sort String.compare

(* A failed snapshot write (full disk, EACCES) must surface as [Error],
   must not rotate the segment, and must not prune the journal it
   failed to supersede — recovery then replays the retained segments
   as if the snapshot was never attempted. *)
let test_snapshot_failure_retains_journal () =
  let dir = fresh_dir "snap-fail" in
  let trace = gen_trace (Prng.create chaos_seed) 12 in
  let wal, db, engine =
    Durable.create_engine ~consume:true
      (Durable.config ~fsync:Durable.Always ~snapshot_every:0 dir)
  in
  seed_store ~wal db;
  let rdb, rengine = mk_reference ~consume:true in
  let run ops =
    List.iter
      (fun op ->
        apply_op ~wal db engine op;
        apply_op rdb rengine op)
      ops
  in
  run (List.filteri (fun i _ -> i < 6) trace);
  (match Durable.snapshot wal with
  | Ok () -> ()
  | Error why -> Alcotest.failf "healthy snapshot failed: %s" why);
  let seg_after_good = Durable.current_segment wal in
  run (List.filteri (fun i _ -> i >= 6) trace);
  let before = sorted_files dir in
  Durable.inject_snapshot_failure (Some eacces);
  (match Durable.snapshot wal with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "injected snapshot failure must surface as Error");
  Durable.inject_snapshot_failure None;
  Alcotest.(check (list string))
    "no rotation, no prune, no partial file" before (sorted_files dir);
  Alcotest.(check string)
    "segment unrotated" seg_after_good
    (Durable.current_segment wal);
  (* The session keeps journaling; recovery replays the retained
     segments exactly. *)
  run (gen_trace (Prng.create (chaos_seed + 3)) 4);
  Durable.close wal;
  let t, rdb', rengine', report = recover_exn ~ctx:"snap-fail" dir in
  Alcotest.(check bool)
    "clean tail" true
    (report.Durable.truncation = None);
  Alcotest.check obs_t "recovered == reference" (observe rdb rengine)
    (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* Recovery's own checkpoint snapshot failing must not lose state: with
   a clean tail recovery succeeds, reports the failure, and prunes
   nothing — the pre-existing files stay authoritative for the retry. *)
let test_checkpoint_failure_clean_tail () =
  let dir = fresh_dir "ckpt-fail" in
  let _, _, _, _, _, state2 = setup_cycle dir in
  let before = sorted_files dir in
  Durable.inject_snapshot_failure (Some eacces);
  let t, rdb, rengine, report = recover_exn ~ctx:"ckpt-clean" dir in
  Durable.inject_snapshot_failure None;
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
  let seg, _, b1, b2, _, _ = setup_cycle dir in
  Resilient.Disk_fault.apply ~path:seg
    (Resilient.Disk_fault.Bit_flip { offset = (b1 + b2) / 2; mask = 0x10 });
  Durable.inject_snapshot_failure (Some eacces);
  (match Durable.recover (Durable.config dir) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn tail + failed checkpoint must refuse");
  Durable.inject_snapshot_failure None;
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
  let id1 = Online.next_id engine in
  (match Online.submit engine q1 with
  | Online.Pending -> ()
  | _ -> Alcotest.fail "q1 should pend");
  Alcotest.(check bool) "withdraw live id" true (Online.withdraw engine id1);
  Alcotest.(check bool)
    "withdraw again is false" false
    (Online.withdraw engine id1);
  Alcotest.(check bool)
    "withdraw unknown id is false" false
    (Online.withdraw engine 999);
  Alcotest.(check int) "pool empty" 0 (Online.pending_count engine);
  (match Online.submit engine q2 with
  | Online.Pending -> ()
  | _ -> Alcotest.fail "q2 must pend once q1 is withdrawn");
  Alcotest.(check int) "nothing fired" 0 (Online.total_coordinated engine);
  let live = observe db engine in
  Durable.close wal;
  let t, rdb', rengine', report = recover_exn ~ctx:"withdraw" dir in
  Alcotest.(check bool)
    "clean tail" true
    (report.Durable.truncation = None);
  Alcotest.check obs_t "withdrawal replayed" live (observe rdb' rengine');
  Durable.close t;
  rm_rf dir

(* A crash mid-snapshot leaves only a .tmp; recovery removes it and
   reports it, losing nothing. *)
let test_tmp_cleanup () =
  let dir = fresh_dir "tmp-clean" in
  let _, _, _, _, _, state2 = setup_cycle dir in
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

(* ------------------------ unit-level checks ----------------------- *)

let test_crc32_vector () =
  Alcotest.(check int) "check value" 0xCBF43926 (Durable.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Durable.Crc32.string "")

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
      let trace = gen_trace (Prng.create chaos_seed) 8 in
      let wal, db, engine =
        Durable.create_engine (Durable.config ~fsync ~snapshot_every:3 dir)
      in
      seed_store ~wal db;
      let rdb, rengine = mk_reference ~consume:false in
      List.iter
        (fun op ->
          apply_op ~wal db engine op;
          apply_op rdb rengine op)
        trace;
      Durable.close wal;
      let t, rdb', rengine', _ =
        recover_exn ~ctx:(Durable.fsync_policy_to_string fsync) dir
      in
      Alcotest.check obs_t
        (Durable.fsync_policy_to_string fsync)
        (observe rdb rengine) (observe rdb' rengine');
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
  let rdb, rengine = mk_reference ~consume:true in
  let q1, q2 = cycle_pair () in
  List.iter
    (fun op ->
      apply_op ~wal db engine op;
      apply_op rdb rengine op)
    (Submit q1 :: Submit q2 :: gen_trace (Prng.create chaos_seed) 12);
  let expected = observe rdb rengine in
  Alcotest.(check bool) "something coordinated" true (expected.o_satisfied > 0);
  (* [wal_only] and [bad] hold the Meta record; after the forced
     snapshot [dir] holds only the snapshot and an empty segment. *)
  let wal_only = fresh_dir "compat-wal" and bad = fresh_dir "compat-bad" in
  copy_dir dir wal_only;
  copy_dir dir bad;
  (match Durable.snapshot wal with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
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
          let t, rdb', rengine', report = recover_exn ~ctx:label d in
          Alcotest.(check bool) (label ^ ": clean tail") true
            (report.Durable.truncation = None);
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
    Alcotest.test_case "differential: every crash point recovers exactly"
      `Quick test_crash_points;
    Alcotest.test_case "differential: torn tails recover to the previous op"
      `Quick test_torn_tails;
    Alcotest.test_case "uncommitted group is dropped whole" `Quick
      test_uncommitted_group;
    Alcotest.test_case "garbage length prefix is typed corruption" `Quick
      test_garbage_length;
    Alcotest.test_case "bit flip fails the checksum" `Quick test_bad_crc;
    Alcotest.test_case "corrupt snapshot falls back to the previous one"
      `Quick test_snapshot_fallback;
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
  ]
