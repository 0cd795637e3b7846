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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  loop 0

(* Same valuations, ignoring order and duplicates. *)
let valuations_equal l1 l2 =
  let norm l = List.sort_uniq (Eval.Binding.compare Value.compare) l in
  List.equal (fun a b -> Eval.Binding.compare Value.compare a b = 0) (norm l1)
    (norm l2)

(* ------------------------- fuzz mutations ------------------------- *)

(* One seeded mutation of [s]: a replaced byte (half the time drawn
   from [alphabet]), a truncation, an inserted byte, or a duplicated or
   dropped span of up to 4 bytes. *)
let mutate ~alphabet rng s =
  let random_byte rng =
    if Prng.bool rng then alphabet.[Prng.int rng (String.length alphabet)]
    else Char.chr (Prng.int rng 256)
  in
  let n = String.length s in
  match Prng.int rng 4 with
  | 0 when n > 0 ->
    let b = Bytes.of_string s in
    Bytes.set b (Prng.int rng n) (random_byte rng);
    Bytes.to_string b
  | 1 -> String.sub s 0 (Prng.int rng (n + 1))
  | 2 ->
    let i = Prng.int rng (n + 1) in
    String.sub s 0 i ^ String.make 1 (random_byte rng) ^ String.sub s i (n - i)
  | _ ->
    (* Duplicate or drop a short span: repeated or missing delimiters. *)
    let i = Prng.int rng (n + 1) in
    let len = min (n - i) (1 + Prng.int rng 4) in
    if Prng.bool rng then String.sub s 0 (i + len) ^ String.sub s i (n - i)
    else String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

(* ------------------------- chaos settings ------------------------- *)

let chaos_seed =
  match int_of_string_opt (try Sys.getenv "CHAOS_SEED" with Not_found -> "")
  with
  | Some s -> s
  | None -> 42

let chaos_rate =
  match
    float_of_string_opt (try Sys.getenv "CHAOS_FAULT_RATE" with Not_found -> "")
  with
  | Some r when r >= 0.0 && r < 1.0 -> r
  | Some _ | None -> 0.3

(* Transient faults with effectively unlimited retries: every probe
   eventually succeeds, so a chaos run must equal the fault-free one. *)
let chaos_config =
  {
    Resilient.default_config with
    max_attempts = 1000;
    faults =
      Some
        {
          Resilient.fault_defaults with
          fault_seed = chaos_seed;
          transient_rate = chaos_rate;
        };
  }

(* -------------------- seeded online workloads ---------------------- *)

open Entangled
module Online = Coordination.Online

(* Heads and posts draw constants from a 4-value pool, so partners,
   multi-member components and ambiguous (unsafe) postconditions all
   occur; "Nowhere" bodies keep some components pending forever. *)
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

type op = Submit of Query.t | Flush | Insert of int * string

let gen_trace rng n =
  let next_fid = ref 1000 in
  List.init n (fun i ->
      let roll = Prng.int rng 10 in
      if roll < 7 then Submit (random_query rng i)
      else if roll < 9 then Flush
      else begin
        incr next_fid;
        Insert (!next_fid, dests.(Prng.int rng 3))
      end)

(* The F table the online differentials start from. *)
let mk_db () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  List.iter
    (fun (f, d) -> Database.insert db "F" [ vi f; vs d ])
    [ (101, "Zurich"); (102, "Zurich"); (200, "Paris"); (300, "Athens") ];
  db

let seed_facts = [ (101, "Zurich"); (102, "Zurich"); (200, "Paris") ]

let fired_names (c : Online.coordinated) =
  List.map (fun q -> q.Query.name) c.Online.queries

(* Definition 1 for a set the online engine fired.  Member [id]'s
   variables carry the prefix "q<id>." in the assignment and members
   come in pool order, so the prefixes sorted by id pair up with the
   members that have variables (one without variables needs no
   renaming).  [db] must hold every tuple the set may have used; a
   consume-mode engine deleted them, so its caller passes a shadow store
   of every tuple ever inserted. *)
let check_fired ~ctx db (c : Online.coordinated) =
  let id_of prefix =
    int_of_string (String.sub prefix 1 (String.length prefix - 2))
  in
  let prefixes =
    Eval.Binding.fold
      (fun v _ acc ->
        match String.index_opt v '.' with
        | Some k -> String.sub v 0 (k + 1) :: acc
        | None -> acc)
      c.Online.assignment []
    |> List.sort_uniq (fun a b -> Int.compare (id_of a) (id_of b))
  in
  let unmatched () =
    Alcotest.failf "%s: fired set %s has unmatched variables" ctx
      (String.concat "," (fired_names c))
  in
  let renamed, rest =
    List.fold_left
      (fun (acc, prefixes) q ->
        match (Query.variables q, prefixes) with
        | [], _ -> (q :: acc, prefixes)
        | _, prefix :: prefixes -> (Query.rename ~prefix q :: acc, prefixes)
        | _, [] -> unmatched ())
      ([], prefixes) c.Online.queries
  in
  if rest <> [] then unmatched ();
  let qs = Array.of_list (List.rev renamed) in
  match
    Solution.validate db qs
      (Solution.make
         ~members:(List.init (Array.length qs) Fun.id)
         ~assignment:c.Online.assignment)
  with
  | Ok () -> ()
  | Error why ->
    Alcotest.failf "%s: fired set %s fails Definition 1: %s" ctx
      (String.concat "," (fired_names c))
      why

(* A query over [dest] flights whose postconditions and head are R atoms
   on the given constants. *)
let rq ?(dest = "Zurich") name ~post ~head =
  Query.make ~name
    ~post:(List.map (fun c -> atom "R" [ cs c; var "y" ]) post)
    ~head:[ atom "R" [ cs head; var "x" ] ]
    [ atom "F" [ var "x"; cs dest ] ]

(* Query [i] of a Figure 4 list chain over Zurich flights: it wants
   query [i + 1], unless it is the [last]. *)
let chain_query ?(prefix = "u") i ~last =
  let name k = Printf.sprintf "%s%d" prefix k in
  rq (name i) ~post:(if last then [] else [ name (i + 1) ]) ~head:(name i)

(* A query over [dest] flights on relation S, which no seeded workload
   names: it is its own component and fires alone.  The differentials
   close every run with it in a batch, so each consume mode fires a set
   through its flush path in every run, whatever the seed. *)
let closing_query dest =
  Query.make ~name:"closing" ~post:[]
    ~head:[ atom "S" [ cs "done"; var "x" ] ]
    [ atom "F" [ var "x"; cs dest ] ]

let submission_repr = function
  | Online.Coordinated c -> "fired " ^ String.concat "," (fired_names c)
  | Online.Pending -> "pending"
  | Online.Rejected_unsafe ws ->
    "rejected "
    ^ String.concat ","
        (List.map (fun (a, b) -> Printf.sprintf "%d/%d" a b) ws)

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
