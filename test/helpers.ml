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

(* CHAOS_SEED, or 42 when it is unset.  A value that is not an integer
   stops the run at start-up rather than repeating the seed-42 leg. *)
let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | None -> 42
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "CHAOS_SEED=%S is not an integer" s))

(* -------------------- seeded online workloads ---------------------- *)

open Entangled
module Online = Coordination.Online

(* Heads and posts draw constants from a 4-value pool, so partners,
   multi-member components and ambiguous (unsafe) postconditions all
   occur; "Nowhere" bodies keep some components pending until a
   Nowhere flight is inserted.  Six queries in ten carry a
   postcondition over the pool, one in ten a var-first one (compatible
   with every R head, its owner's own included) and the rest none; one
   in six gains a postcondition no head ever matches (submission can
   prove it quiet) and one in six a second var-first one.  [draw n] is
   uniform in [0, n). *)
let dests = [| "Zurich"; "Paris"; "Athens"; "Nowhere" |]

let random_query draw i =
  let g () = cs (Printf.sprintf "g%d" (draw 4)) in
  let post =
    match draw 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> [ atom "R" [ g (); var "y" ] ]
    | 6 -> [ atom "R" [ var "w"; var "y" ] ]
    | _ -> []
  in
  let extra =
    match draw 6 with
    | 0 -> [ atom "R" [ cs "nobody"; var "z" ] ]
    | 1 -> [ atom "R" [ var "v"; var "z" ] ]
    | _ -> []
  in
  Query.make
    ~name:(Printf.sprintf "q%d" i)
    ~post:(post @ extra)
    ~head:[ atom "R" [ g (); var "x" ] ]
    [ atom "F" [ var "x"; cs dests.(draw (Array.length dests)) ] ]

(* The facts every online store starts from. *)
let seed_facts =
  [ (101, "Zurich"); (102, "Zurich"); (200, "Paris"); (300, "Athens") ]

let mk_db () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  List.iter (fun (f, d) -> Database.insert db "F" [ vi f; vs d ]) seed_facts;
  db

(* ----------------------------- op traces ---------------------------- *)

(* One operation of an online session.  An insert into a table that
   does not exist yet creates it, with F's attributes. *)
type op =
  | Submit of Query.t
  | Withdraw of int  (** a pool id *)
  | Flush
  | Insert of string * Value.t list
  | Delete of string * Value.t list
  | Crash  (** kill the process and recover its WAL *)

type answer =
  | Submitted of Online.submission
  | Fired of Online.coordinated list
  | Withdrew of bool
  | Stored

let table_attrs = [ "fid"; "dest" ]

(* Apply a store write to [db], journaling it through [wal] if given. *)
let write_store ?wal db = function
  | Insert (rel, tuple) ->
    if not (Database.mem_relation db rel) then begin
      ignore (Database.create_table' db rel table_attrs);
      Option.iter (fun t -> Durable.journal_create_table t rel table_attrs) wal
    end;
    Database.insert db rel tuple;
    Option.iter (fun t -> Durable.journal_insert t rel tuple) wal
  | Delete (rel, tuple) ->
    Option.iter
      (fun r -> ignore (Relation.delete r (Tuple.make tuple)))
      (Database.relation_opt db rel)
  | Submit _ | Withdraw _ | Flush | Crash -> ()

let apply_op ?wal ?witness db engine = function
  | Submit q -> Submitted (Online.submit ?witness engine q)
  | Withdraw id -> Withdrew (Online.withdraw engine id)
  | Flush -> Fired (Online.flush ?witness engine)
  | (Insert _ | Delete _ | Crash) as op ->
    write_store ?wal db op;
    Stored

let seed_ops = List.map (fun (f, d) -> Insert ("F", [ vi f; vs d ])) seed_facts

(* The request frames of each op, in the server's protocol: the first
   insert into a table is preceded by its create_table.  Ops the
   protocol lacks become frames it refuses with bad_op, and a crash a
   status request. *)
let frames ops =
  let created = Hashtbl.create 4 in
  let value = function
    | Value.Int i -> Json.Int i
    | Value.Str s -> Json.Str s
    | Value.Bool b -> Json.Bool b
  in
  let strs l = Json.Arr (List.map (fun a -> Json.Str a) l) in
  List.mapi
    (fun i op ->
      let req name fields =
        Json.Obj (("id", Json.Int i) :: ("op", Json.Str name) :: fields)
      in
      let query q = Parser.query_to_string q in
      let row rel t = [ ("rel", Json.Str rel); ("tuple", Json.Arr (List.map value t)) ] in
      match op with
      | Submit q -> [ req "submit" [ ("query", Json.Str (query q)) ] ]
      | Withdraw id -> [ req "retire" [ ("pool_id", Json.Int id) ] ]
      | Flush -> [ req "flush" [] ]
      | Insert (rel, t) when Hashtbl.mem created rel -> [ req "insert" (row rel t) ]
      | Insert (rel, t) ->
        Hashtbl.add created rel ();
        [
          Json.Obj
            [ ("op", Json.Str "create_table"); ("name", Json.Str rel);
              ("attrs", strs table_attrs) ];
          req "insert" (row rel t);
        ]
      | Delete (rel, t) -> [ req "delete" (row rel t) ]
      | Crash -> [ req "status" [ ("then", Json.Str "crash") ] ])
    ops

let fired_names (c : Online.coordinated) =
  List.map (fun q -> q.Query.name) c.Online.queries

let fired_sets = function
  | Submitted (Online.Coordinated c) -> [ c ]
  | Fired sets -> sets
  | Submitted (Online.Pending | Online.Rejected_unsafe _)
  | Withdrew _ | Stored ->
    []

(* Definition 1 for a set the online engine fired.  Member [id]'s
   variables carry the prefix "q<id>." in the assignment and members
   come in pool order, so the prefixes sorted by id pair up with the
   members that have variables (one without variables needs no
   renaming).  [db] must hold every tuple the set may have used; a
   consume-mode engine deleted them, so its caller passes a shadow store
   of every tuple ever inserted.  A failure raises [Failure]. *)
let check_fired ~ctx db (c : Online.coordinated) =
  let fail why =
    Printf.ksprintf failwith "%s: fired set %s %s" ctx
      (String.concat "," (fired_names c)) why
  in
  let id_of p = int_of_string (String.sub p 1 (String.length p - 2)) in
  let prefixes =
    Eval.Binding.fold
      (fun v _ acc ->
        match String.index_opt v '.' with
        | Some k -> String.sub v 0 (k + 1) :: acc
        | None -> acc)
      c.Online.assignment []
    |> List.sort_uniq (fun a b -> Int.compare (id_of a) (id_of b))
    |> ref
  in
  let rename q =
    match (Query.variables q, !prefixes) with
    | [], _ -> q
    | _, prefix :: rest ->
      prefixes := rest;
      Query.rename ~prefix q
    | _, [] -> fail "has unmatched variables"
  in
  let qs =
    List.fold_left (fun acc q -> rename q :: acc) [] c.Online.queries
    |> List.rev |> Array.of_list
  in
  if !prefixes <> [] then fail "has unmatched variables";
  match
    Solution.validate db qs
      (Solution.make
         ~members:(List.init (Array.length qs) Fun.id)
         ~assignment:c.Online.assignment)
  with
  | Ok () -> ()
  | Error why -> fail ("fails Definition 1: " ^ why)

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

let submission_repr = function
  | Online.Coordinated c -> "fired " ^ String.concat "," (fired_names c)
  | Online.Pending -> "pending"
  | Online.Rejected_unsafe ws ->
    "rejected "
    ^ String.concat ","
        (List.map (fun (a, b) -> Printf.sprintf "%d/%d" a b) ws)

(* The graph [Online] hands the solver for each component, assembled
   from the edges stored at admission, must be the one
   [Coordination_graph.build] derives from scratch over the
   component's queries renamed by position: the same extended edges
   and targets, and the same adjacency order (so the same SCC
   numbering).  A failure raises [Failure]. *)
let check_component_graphs engine =
  let shape (g : Coordination_graph.t) =
    ( g.extended,
      g.targets,
      List.map (Graphs.Digraph.successors g.graph) (Graphs.Digraph.nodes g.graph)
    )
  in
  let entries = Array.of_list (Online.pending_entries engine) in
  List.iter
    (fun comp ->
      let ids = List.map (fun p -> fst entries.(p)) comp in
      let rebuilt =
        Coordination_graph.build
          (Query.rename_set (List.map (fun p -> snd entries.(p)) comp))
      in
      if shape (Online.component_graph engine ids) <> shape rebuilt then
        Printf.ksprintf failwith
          "the graph handed over for pool ids [%s] is not \
           Coordination_graph.build's"
          (String.concat "," (List.map string_of_int ids)))
    (Online.components engine)

(* ----------------------- observable state ------------------------- *)

type obs_state = {
  o_pending : (int * string) list;
  o_comps : int list list;
  o_satisfied : int;
  o_next_id : int;
  o_tables : (string * Tuple.t list) list;
}

(* Every table of [db], its tuples sorted. *)
let tables db =
  List.map
    (fun r -> (Relation.name r, List.sort Tuple.compare (Relation.to_list r)))
    (Database.relations db)

let observe db engine =
  {
    o_pending =
      List.map
        (fun (id, q) -> (id, q.Query.name))
        (Online.pending_entries engine);
    o_comps = Online.components engine;
    o_satisfied = Online.total_coordinated engine;
    o_next_id = Online.next_id engine;
    o_tables = tables db;
  }

let pp_obs ppf s =
  let list f l = String.concat ";" (List.map f l) in
  Format.fprintf ppf
    "pending=[%s] components=[%s] satisfied=%d next_id=%d tables=[%s]"
    (list (fun (i, n) -> Printf.sprintf "%d:%s" i n) s.o_pending)
    (list (fun c -> String.concat "," (List.map string_of_int c)) s.o_comps)
    s.o_satisfied s.o_next_id
    (list
       (fun (n, tups) ->
         Printf.sprintf "%s{%s}" n (list (Format.asprintf "%a" Tuple.pp) tups))
       s.o_tables)

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
  Server.create cfg { Server.db; engine; durable; guard }

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
