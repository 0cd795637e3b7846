(* Seeded mutation fuzzing of the WAL segment and snapshot decoders.

   A short durable consume-mode session writes a WAL directory holding
   snapshots and a segment tail.  Each mutant copies that directory,
   damages one file — bit flips, a truncation, inserted bytes, an
   edited length field, or a payload edit whose checksum is recomputed
   so the record and snapshot decoders themselves see the garbage —
   and recovers it.  [Durable.recover] must return: a clean report, a
   typed corruption, or [Error _], and never raise.  Recovering the
   unmutated directory must reproduce the session exactly.  Seeds
   follow CHAOS_SEED, so CI runs this suite over its seed matrix. *)

open Helpers
module Online = Coordination.Online

let seeds = List.init 3 (fun k -> chaos_seed + k)
let mutants_per_seed = 2_000
let cfg dir = Durable.config ~fsync:Durable.Never ~snapshot_every:4 dir

(* The session: a table, its facts and a stream of submissions, some of
   which fire and book inventory, with a snapshot every 4 groups. *)
let write_session dir =
  let wal, db, engine = Durable.create_engine ~consume:true (cfg dir) in
  ignore (Relational.Database.create_table' db "F" [ "fid"; "dest" ]);
  Durable.journal_create_table wal "F" [ "fid"; "dest" ];
  List.iter
    (fun (f, d) ->
      Relational.Database.insert db "F" [ vi f; vs d ];
      Durable.journal_insert wal "F" [ vi f; vs d ])
    seed_facts;
  let rng = Prng.create 5 in
  for step = 1 to 14 do
    ignore (Online.submit engine (random_query rng step))
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
  match Durable.recover (cfg dir) with
  | Ok (wal, _, _, _) -> Durable.close wal
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "seed %d mutant %d (%s): recover raised %s" seed mutant
      what (Printexc.to_string e)

let test_recover_never_raises () =
  let src = fresh_dir "fuzz-src" in
  let expected = write_session src in
  let files = files_of src in
  Alcotest.(check bool) "session wrote a snapshot" true
    (List.exists (fun (n, _) -> Filename.check_suffix n ".img") files);
  let dir = fresh_dir "fuzz-ref" in
  write_files dir files;
  (match Durable.recover (cfg dir) with
  | Ok (wal, db, engine, report) ->
    Alcotest.(check bool) "clean tail" true (report.truncation = None);
    Alcotest.(check bool) "snapshot loaded" true
      (report.snapshot_loaded <> None);
    Alcotest.check obs_t "unmutated recovery is exact" expected
      (observe db engine);
    Durable.close wal
  | Error why -> Alcotest.failf "unmutated recovery failed: %s" why);
  rm_rf dir;
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      for mutant = 1 to mutants_per_seed do
        let dir = fresh_dir "fuzz" in
        let target, data = Prng.pick rng files in
        let what, data' = mutate rng target data in
        write_files dir
          (List.map (fun (n, d) -> (n, if n = target then data' else d)) files);
        recover_mutant ~seed ~mutant ~what:(what ^ " of " ^ target) dir;
        rm_rf dir
      done)
    seeds;
  rm_rf src

let suite =
  [
    Alcotest.test_case "mutated WAL and snapshots recover or report" `Quick
      test_recover_never_raises;
  ]
