(* Seeded mutation fuzzing of the WAL segment and snapshot decoders.

   A short durable consume-mode session writes a WAL directory holding
   snapshots and a segment tail.  Each mutant copies that directory,
   damages one file, or two — bit flips, a truncation, inserted bytes,
   an edited length field, or a payload edit whose checksum is
   recomputed so the record and snapshot decoders themselves see the
   garbage — and recovers it.  [Durable.recover] must return: a clean
   report, a typed corruption, or [Error _], and never raise.  A
   recovered mutant must keep what it recovered: one more journaled
   insert, a close and a second recovery give the same state plus that
   insert.  Recovering the unmutated directory must reproduce the
   session exactly.  A third directory holds an image an older writer
   left (version 1), so the version-1 decoder is fuzzed too.  Seeds follow CHAOS_SEED, so CI runs this suite
   over its seed matrix. *)

open Helpers
module Online = Coordination.Online

let seeds = List.init 3 (fun k -> chaos_seed + k)
let mutants_per_seed = 2_000
let cfg ?io dir = Durable.config ~fsync:Durable.Never ~snapshot_every:4 ?io dir

(* The session: a table, its facts and a stream of submissions, some of
   which fire and book inventory, with a snapshot every 4 groups.  With
   [in_flight] the handle has a seam, so no writer thread starts and
   the writer runs one step at a time: the session stops one submission
   after a hand-off, once that writer has finished but before any
   operation rotates, so the last segment runs past the newest image's
   LSN. *)
let write_session ?(in_flight = false) dir =
  let io = if in_flight then Some ignore else None in
  let wal, db, engine = Durable.create_engine ~consume:true (cfg ?io dir) in
  List.iter (write_store ~wal db) seed_ops;
  let rng = Prng.create 5 in
  let handed_off = ref None in
  let step = ref 1 in
  while !step <= 14 && not (in_flight && !handed_off = Some (!step - 2)) do
    ignore (Online.submit engine (random_query (Prng.int rng) !step));
    if in_flight && !handed_off = None && Durable.writer_step wal <> None then
      handed_off := Some !step;
    incr step
  done;
  while Durable.writer_step wal <> None do
    ()
  done;
  let expected = observe db engine in
  Durable.close wal;
  expected

let files_of dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> (n, read_file (Filename.concat dir n)))

let write_files dir files =
  List.iter
    (fun (n, data) ->
      let oc = open_out_bin (Filename.concat dir n) in
      output_string oc data;
      close_out oc)
    files

let u32_at s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* Offsets of the records in a segment image: after the 16-byte header,
   each record is a u32 payload length, an 8-byte LSN, a flag byte, the
   payload and a u32 CRC over LSN, flag and payload. *)
let record_offsets data =
  let len = String.length data in
  let rec go pos acc =
    if pos + 4 > len then List.rev acc
    else
      let plen = u32_at data pos in
      let next = pos + 17 + plen in
      if next > len then List.rev acc else go next (pos :: acc)
  in
  if len < 16 then [] else go 16 []

(* The byte range a checksum covers, where its u32 lives, and where the
   length field sits, for each record of a segment or the snapshot. *)
type frame = { len_at : int; body : int * int; crc_at : int }

let frames name data =
  if Filename.check_suffix name ".img" then
    let n = String.length data in
    if n < 24 then []
    else [ { len_at = 16; body = (20, n - 24); crc_at = n - 4 } ]
  else
    List.map
      (fun pos ->
        let plen = u32_at data pos in
        { len_at = pos; body = (pos + 4, 9 + plen); crc_at = pos + 13 + plen })
      (record_offsets data)

let flip_bit rng b =
  let i = Prng.int rng (Bytes.length b) in
  Bytes.set b i
    (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))

let random_bytes rng n = String.init n (fun _ -> Char.chr (Prng.int rng 256))

(* One mutation of one file image; the kind is returned for messages. *)
let mutate rng name data =
  let n = String.length data in
  let b = Bytes.of_string data in
  let pick_frame () =
    match frames name data with [] -> None | fs -> Some (Prng.pick rng fs)
  in
  match Prng.int rng 5 with
  | 0 when n > 0 ->
    for _ = 0 to Prng.int rng 4 do
      flip_bit rng b
    done;
    ("bit flips", Bytes.to_string b)
  | 1 -> ("truncation", String.sub data 0 (Prng.int rng (n + 1)))
  | 2 ->
    let i = Prng.int rng (n + 1) in
    ( "insertion",
      String.sub data 0 i
      ^ random_bytes rng (1 + Prng.int rng 16)
      ^ String.sub data i (n - i) )
  | 3 -> (
    match pick_frame () with
    | None -> ("truncation", "")
    | Some f ->
      let old = u32_at data f.len_at in
      let v =
        Prng.pick rng
          [ 0; old - 1; old + 1; 2 * old; 1 lsl 24; (1 lsl 24) + 1;
            0xffff_ffff; Prng.int rng (1 lsl 30) ]
      in
      set_u32 b f.len_at (max 0 v);
      ("length edit", Bytes.to_string b))
  | _ -> (
    match pick_frame () with
    | None -> ("truncation", "")
    | Some { body = off, len; crc_at; _ } ->
      (* Damage the payload, then re-checksum it: the CRC no longer
         shields the decoder. *)
      let payload_off =
        if Filename.check_suffix name ".img" then off else off + 9
      in
      let payload_len = len - (payload_off - off) in
      if payload_len > 0 then
        for _ = 0 to Prng.int rng 3 do
          let i = payload_off + Prng.int rng payload_len in
          Bytes.set b i (Char.chr (Prng.int rng 256))
        done;
      set_u32 b crc_at (Durable.Crc32.bytes b off len);
      ("checksummed payload edit", Bytes.to_string b))

let recover_mutant ~seed ~mutant ~what dir =
  let fail fmt = Alcotest.failf ("seed %d mutant %d (%s): " ^^ fmt) seed mutant what in
  match Durable.recover (cfg dir) with
  | Ok (wal, db, engine, _) -> (
    ignore (Relational.Database.create_table' db "Kept" [ "k" ]);
    Durable.journal_create_table wal "Kept" [ "k" ];
    Relational.Database.insert db "Kept" [ vi mutant ];
    Durable.journal_insert wal "Kept" [ vi mutant ];
    let kept = observe db engine in
    Durable.close wal;
    match Durable.recover (cfg dir) with
    | Ok (wal, db, engine, _) ->
      Durable.close wal;
      if observe db engine <> kept then
        fail "the second recovery lost what the first kept"
    | Error why -> fail "the second recovery failed: %s" why
    | exception e -> fail "the second recovery raised %s" (Printexc.to_string e))
  | Error _ -> ()
  | exception e -> fail "recover raised %s" (Printexc.to_string e)

(* Recovering [files] unmutated must reproduce [expected]; then
   [mutants] seeded mutants of it must recover or report. *)
let fuzz ~label ~mutants (expected, files, check) =
  let dir = fresh_dir "fuzz-ref" in
  write_files dir files;
  (match Durable.recover (cfg dir) with
  | Ok (wal, db, engine, report) ->
    Alcotest.(check bool) (label ^ ": clean tail") true (report.truncation = None);
    Alcotest.(check bool) (label ^ ": snapshot loaded") true
      (report.snapshot_loaded <> None);
    check report;
    Alcotest.check obs_t (label ^ ": unmutated recovery is exact") expected
      (observe db engine);
    Durable.close wal
  | Error why -> Alcotest.failf "%s: unmutated recovery failed: %s" label why);
  rm_rf dir;
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      for mutant = 1 to mutants do
        let dir = fresh_dir "fuzz" in
        (* One mutant in four damages two files: a snapshot that fails
           validation beside a torn segment is a fault recovery's own
           checkpoint must survive. *)
        let first = Prng.pick rng files in
        let targets =
          match List.filter (fun f -> f != first) files with
          | _ :: _ as rest when Prng.int rng 4 = 0 -> [ first; Prng.pick rng rest ]
          | _ -> [ first ]
        in
        let damaged =
          List.map (fun (n, d) -> (n, mutate rng n d)) targets
        in
        write_files dir
          (List.map
             (fun (n, d) ->
               (n, Option.fold ~none:d ~some:snd (List.assoc_opt n damaged)))
             files);
        recover_mutant ~seed ~mutant
          ~what:
            (String.concat " + "
               (List.map
                  (fun (n, (what, _)) -> Printf.sprintf "%s: %s of %s" label what n)
                  damaged))
          dir;
        rm_rf dir
      done)
    seeds

let session ?in_flight () =
  let src = fresh_dir "fuzz-src" in
  let expected = write_session ?in_flight src in
  let files = files_of src in
  rm_rf src;
  Alcotest.(check bool) "session wrote a snapshot" true
    (List.exists (fun (n, _) -> Filename.check_suffix n ".img") files);
  (expected, files)

let test_recover_never_raises () =
  let expected, files = session () in
  fuzz ~label:"settled" ~mutants:mutants_per_seed
    (expected, files, fun _ -> ())

(* A directory captured with a snapshot installed but not yet rotated
   past: recovery loads the image and replays the rest of its segment.
   Its mutants must recover or report like any other. *)
let test_in_flight_never_raises () =
  let expected, files = session ~in_flight:true () in
  let newest prefix =
    List.fold_left
      (fun acc (n, _) ->
        if String.starts_with ~prefix n then
          max acc (Int64.of_string (String.sub n (String.length prefix) 20))
        else acc)
      0L files
  in
  Alcotest.(check bool) "the last segment starts at or below the image" true
    (Int64.compare (newest "wal-") (newest "snap-") <= 0);
  fuzz ~label:"in flight" ~mutants:(mutants_per_seed / 2)
    ( expected,
      files,
      fun report ->
        Alcotest.(check bool) "groups past the image replayed" true
          (report.Durable.groups_replayed > 0);
        Alcotest.(check int) "from the image's own segment" 1
          report.Durable.segments_scanned )

(* A directory whose image an older writer left: the settled session
   is recovered, its checkpoint replaced by the version-1 image of the
   same state ([Snapshot_oracle.encode_v1]), and four more submissions
   are journaled behind it.  Unmutated, recovery loads that image and
   skips nothing. *)
let test_v1_image_never_raises () =
  let src = fresh_dir "fuzz-v1" in
  ignore (write_session src : obs_state);
  let expected, name =
    match Durable.recover (Durable.config ~fsync:Durable.Never ~snapshot_every:0 src) with
    | Error why -> Alcotest.failf "v1 session: recovery failed: %s" why
    | Ok (wal, db, engine, report) ->
      let lsn = report.Durable.recovered_lsn in
      let image =
        Snapshot_oracle.image ~magic:"EWALSNP1" ~lsn
          (Snapshot_oracle.encode_v1 ~db engine)
      in
      let rng = Prng.create 6 in
      for step = 15 to 18 do
        ignore (Online.submit engine (random_query (Prng.int rng) step))
      done;
      let expected = observe db engine in
      Durable.close wal;
      let name = Printf.sprintf "snap-%020Ld.img" lsn in
      write_files src [ (name, image) ];
      (expected, name)
  in
  let files = files_of src in
  rm_rf src;
  fuzz ~label:"v1 image" ~mutants:(mutants_per_seed / 2)
    ( expected,
      files,
      fun report ->
        Alcotest.(check (option string)) "the v1 image is loaded" (Some name)
          (Option.map fst report.Durable.snapshot_loaded);
        Alcotest.(check int) "no image skipped" 0
          (List.length report.Durable.snapshots_skipped);
        Alcotest.(check bool) "groups past it replayed" true
          (report.Durable.groups_replayed > 0) )

let suite =
  [
    Alcotest.test_case "mutated WAL and snapshots recover or report" `Quick
      test_recover_never_raises;
    Alcotest.test_case "mutants of a snapshot in flight recover or report"
      `Quick test_in_flight_never_raises;
    Alcotest.test_case "mutants of a version-1 image recover or report" `Quick
      test_v1_image_never_raises;
  ]
