(* Shared builders for the test suites. *)

open Relational

let vi = Value.int
let vs = Value.str

let tup vs_list = Tuple.make vs_list

let var = Term.var
let cst v = Term.const v
let ci n = Term.int n
let cs s = Term.str s

let atom rel args = { Cq.rel; args = Array.of_list args }

(* A small flights database used across suites. *)
let flights_db () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  ignore (Database.create_table' db "H" [ "hid"; "loc" ]);
  List.iter
    (fun (f, d) -> Database.insert db "F" [ vi f; vs d ])
    [ (101, "Zurich"); (102, "Zurich"); (200, "Paris"); (300, "Athens") ];
  List.iter
    (fun (h, l) -> Database.insert db "H" [ vi h; vs l ])
    [ (7, "Paris"); (8, "Athens"); (9, "Zurich") ];
  db

(* The Section 2.2 flight-hotel program (Figure 1). *)
let figure1_queries db =
  let program =
    {|
      table F(flightId, destination).
      table H(hotelId, location).
      fact F(70, Paris).   fact F(71, Paris).   fact F(80, Athens).
      fact H(7, Paris).    fact H(8, Athens).   fact H(9, Madrid).
      query qC: { R(G, x1) }            R(C, x1), Q(C, x2) :- F(x1, x), H(x2, x).
      query qG: { R(C, y1), Q(C, y2) }  R(G, y1), Q(G, y2) :- F(y1, Paris), H(y2, Paris).
      query qJ: { R(C, z1), R(G, z1) }  R(J, z1), Q(J, z2) :- F(z1, Athens), H(z2, Athens).
      query qW: { R(C, w1), Q(J, w2) }  R(W, w1), Q(W, w2) :- F(w1, Madrid), H(w2, Madrid).
    |}
  in
  Entangled.Parser.load_program db (Entangled.Parser.parse_program program)

(* Alcotest testables. *)
let value_t = Alcotest.testable Value.pp Value.equal
let tuple_t = Alcotest.testable Tuple.pp Tuple.equal
let term_t = Alcotest.testable Term.pp Term.equal

let check_validates db queries solution =
  match Entangled.Solution.validate db queries solution with
  | Ok () -> ()
  | Error m -> Alcotest.failf "solution failed Definition 1: %s" m

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Scratch directories for WAL suites.  CHAOS_WAL_DIR relocates them so
   a failing CI leg leaves its segments behind for artifact upload. *)
let scratch_base =
  match Sys.getenv "CHAOS_WAL_DIR" with
  | dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir
  | exception Not_found -> Filename.get_temp_dir_name ()

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat scratch_base
      (Printf.sprintf "ewal-%d-%s-%d" (Unix.getpid ()) tag !dir_counter)
  in
  if Sys.file_exists d then
    Sys.readdir d |> Array.iter (fun n -> Sys.remove (Filename.concat d n))
  else Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Sys.readdir d |> Array.iter (fun n -> Sys.remove (Filename.concat d n));
    Unix.rmdir d
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let copy_dir src dst =
  if not (Sys.file_exists dst) then Unix.mkdir dst 0o755;
  Sys.readdir src
  |> Array.iter (fun n ->
         let oc = open_out_bin (Filename.concat dst n) in
         output_string oc (read_file (Filename.concat src n));
         close_out oc)
