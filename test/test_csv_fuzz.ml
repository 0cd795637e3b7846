(* Seeded mutation fuzzing of [Csv_io.parse_string], the decoder behind
   [load_relation].  Valid CSV images (quoted fields with commas,
   doubled quotes and line breaks, CRLF rows, empty fields, a saved
   relation) are mutated by byte flips, truncations, insertions and
   duplicated or dropped spans.  For every mutant the parser must
   return rows or raise [Parse_error], nothing else, and rows it
   returns must print and parse back to themselves.  Seeds follow
   CHAOS_SEED, so CI runs this suite over its seed matrix. *)

open Relational
open Helpers

let seeds = List.init 3 (fun k -> chaos_seed + k)
let mutants_per_seed = 50_000

let inputs () =
  let saved =
    let db = flights_db () in
    let path = Filename.temp_file "entangle_csv_fuzz" ".csv" in
    Database.insert db "F" [ vi 7; vs "42" ];
    Database.insert db "F" [ vi 8; vs "'x'" ];
    Csv_io.save_relation (Database.relation db "F") ~path;
    let image = read_file path in
    Sys.remove path;
    image
  in
  [|
    Csv_io.write_string
      [
        [ "fid"; "dest" ];
        [ "1"; "New, York" ];
        [ "2"; "say \"hi\"" ];
        [ "3"; "two\nlines" ];
        [ ""; "" ];
      ];
    "a,b\r\n1,2\r\n\"x\"\"y\",\r\n";
    "\"unterminated,1\n2,3\n";
    saved;
  |]

let alphabet = ",\"\r\n'ab01 "

let check_mutant ~seed mutant =
  match Csv_io.parse_string mutant with
  | exception Csv_io.Parse_error _ -> false
  | exception e ->
    Alcotest.failf "seed %d: parse_string raised %s on %S" seed
      (Printexc.to_string e) mutant
  | rows ->
    if Csv_io.parse_string (Csv_io.write_string rows) <> rows then
      Alcotest.failf "seed %d: rows of %S do not print back" seed mutant;
    true

let test_mutants () =
  let inputs = inputs () in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let parsed = ref 0 in
      for _ = 1 to mutants_per_seed do
        let s = ref (Prng.pick_array rng inputs) in
        for _ = 0 to Prng.int rng 3 do
          s := mutate ~alphabet rng !s
        done;
        if check_mutant ~seed !s then incr parsed
      done;
      (* Most mutants still parse and an unterminated quote does not,
         so both outcomes are exercised. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: both outcomes seen" seed)
        true
        (!parsed > 0 && !parsed < mutants_per_seed))
    seeds

let suite =
  [
    Alcotest.test_case "mutated CSV parses or raises Parse_error" `Quick
      test_mutants;
  ]
