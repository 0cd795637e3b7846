(* The correctness oracle and the layered replay.  One in-process pass
   feeds a trace, request by request, through the layers a served
   request crosses — JSON decode, query parse, the sequential [Online]
   engine, response encode — with no socket in between.  Each request's
   outcome is reduced to a canonical line that the served run must
   reproduce, every fired set is re-checked against Definition 1 by
   [Solution.validate], and when asked each layer is timed on its own.

   Canonical lines say what happened, not how the server spells it:
   a response kind, a pool id, the sorted member names of a fired set.
   A later change to field order or whitespace on the wire leaves them
   unchanged. *)

open Relational
open Entangled
module Json = Server.Json
module Online = Coordination.Online

(* ---------------------------- canonical form --------------------------- *)

let sorted_names names = String.concat "," (List.sort compare names)

let set_names (c : Online.coordinated) =
  sorted_names (List.map (fun q -> q.Query.name) c.Online.queries)

let json_names = function
  | Some (Json.Arr items) ->
    sorted_names
      (List.map (function Json.Str s -> s | j -> Json.to_string j) items)
  | _ -> "?"

(* The canonical line of a served response payload. *)
let of_response payload =
  match Json.parse payload with
  | Error why -> "bad_response " ^ why
  | Ok j -> (
    match (Json.mem "ok" j, Json.str_mem "result" j) with
    | Some (Json.Bool true), Some "pending" ->
      Printf.sprintf "pending %d"
        (Option.value ~default:(-1) (Json.int_mem "pool_id" j))
    | Some (Json.Bool true), Some "coordinated" ->
      "coordinated " ^ json_names (Json.mem "queries" j)
    | Some (Json.Bool true), Some "flushed" ->
      let sets =
        match Json.mem "sets" j with
        | Some (Json.Arr sets) -> List.map (fun s -> json_names (Some s)) sets
        | _ -> []
      in
      "flushed " ^ String.concat ";" sets
    | Some (Json.Bool true), Some r -> r
    | _ ->
      "error " ^ Option.value ~default:"?" (Json.str_mem "error" j))

let kind line =
  match String.index_opt line ' ' with
  | Some k -> String.sub line 0 k
  | None -> line

(* Sets fired by the request a canonical line describes. *)
let fired_sets line =
  match kind line with
  | "coordinated" -> 1
  | "flushed" ->
    let sets = String.sub line 8 (String.length line - 8) in
    if sets = "" then 0 else List.length (String.split_on_char ';' sets)
  | _ -> 0

let is_failure line =
  match kind line with "error" | "bad_response" -> true | _ -> false

(* A running digest of canonical lines. *)
type digest = { mutable hash : string; mutable lines : int }

let digest () = { hash = Digest.string ""; lines = 0 }

let add d line =
  d.hash <- Digest.string (d.hash ^ "\n" ^ line);
  d.lines <- d.lines + 1

let hex d = Digest.to_hex d.hash

(* ------------------------------ the oracle ----------------------------- *)

type layers = {
  mutable decode_ns : int;
  mutable parse_ns : int;
  mutable engine_ns : int;
  mutable encode_ns : int;
  mutable ops : int;
}

type t = {
  db : Database.t;
  shadow : Database.t option;
      (* consume mode: every tuple ever inserted, so a fired set's
         grounding can be validated after its seats were booked *)
  engine : Online.t;
  digest : digest;
  mutable fired : int;
  mutable invalid : string list;
  layers : layers;
  mutable timing : bool;
}

let create (shape : Trace.shape) =
  let db = Database.create () in
  if shape.posts then ignore (Workload.Social.install_posts db);
  {
    db;
    shadow = (if shape.consume then Some (Database.create ()) else None);
    engine = Online.create ~consume:shape.consume db;
    digest = digest ();
    fired = 0;
    invalid = [];
    layers = { decode_ns = 0; parse_ns = 0; engine_ns = 0; encode_ns = 0; ops = 0 };
    timing = false;
  }

let invalid o why = if List.length o.invalid < 8 then o.invalid <- why :: o.invalid

(* Variables of the member at position [i] of the evaluated component
   are prefixed "q<i>." (Query.rename_set); members are listed in pool
   order, which is component order, so sorting the prefixes found in the
   assignment pairs each member with its renaming. *)
let validate o (c : Online.coordinated) =
  o.fired <- o.fired + 1;
  let prefixes =
    Eval.Binding.fold
      (fun v _ acc ->
        match String.index_opt v '.' with
        | Some k -> String.sub v 0 (k + 1) :: acc
        | None -> acc)
      c.Online.assignment []
    |> List.sort_uniq compare
    |> List.sort (fun a b ->
           compare
             (int_of_string (String.sub a 1 (String.length a - 2)))
             (int_of_string (String.sub b 1 (String.length b - 2))))
  in
  let members = c.Online.queries in
  if List.length prefixes <> List.length members then
    invalid o ("fired set with unmatched variables: " ^ set_names c)
  else begin
    let qs =
      Array.of_list
        (List.map2 (fun prefix q -> Query.rename ~prefix q) prefixes members)
    in
    let sol =
      Solution.make
        ~members:(List.init (Array.length qs) Fun.id)
        ~assignment:c.Online.assignment
    in
    (match
       Solution.validate (Option.value ~default:o.db o.shadow) qs sol
     with
    | Ok () -> ()
    | Error why -> invalid o (Printf.sprintf "%s: %s" (set_names c) why));
    match Online.last_inventory_conflict o.engine with
    | None -> ()
    | Some _ -> invalid o ("inventory conflict booking " ^ set_names c)
  end

let timed o slot f =
  if not o.timing then f ()
  else begin
    let t0 = Obs.now_ns () in
    let r = f () in
    let dt = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
    (match slot with
    | `Decode -> o.layers.decode_ns <- o.layers.decode_ns + dt
    | `Parse -> o.layers.parse_ns <- o.layers.parse_ns + dt
    | `Engine -> o.layers.engine_ns <- o.layers.engine_ns + dt
    | `Encode -> o.layers.encode_ns <- o.layers.encode_ns + dt);
    r
  end

let value_of_json = function
  | Json.Int i -> Value.Int i
  | Json.Str s -> Value.Str s
  | Json.Bool b -> Value.Bool b
  | j -> invalid_arg ("tuple value " ^ Json.to_string j)

let names_json (c : Online.coordinated) =
  Json.Arr (List.map (fun q -> Json.Str q.Query.name) c.Online.queries)

(* Apply one request payload; returns its canonical line.  The
   response object is built in the shape the server sends so that the
   encode layer is timed on representative output. *)
let apply o payload =
  let req =
    match timed o `Decode (fun () -> Json.parse payload) with
    | Ok r -> r
    | Error why -> invalid_arg ("trace frame: " ^ why)
  in
  let str k = Option.get (Json.str_mem k req) in
  let respond fields line =
    let resp =
      Json.Obj
        (("id", Option.value ~default:Json.Null (Json.mem "id" req))
        :: ("ok", Json.Bool true) :: fields)
    in
    ignore (timed o `Encode (fun () -> Json.to_string resp));
    line
  in
  let line =
    match str "op" with
    | "submit" -> (
      let q = timed o `Parse (fun () -> Parser.parse_query (str "query")) in
      let pool_id = Online.next_id o.engine in
      match timed o `Engine (fun () -> Online.submit o.engine q) with
      | Online.Pending ->
        respond
          [ ("result", Json.Str "pending"); ("pool_id", Json.Int pool_id) ]
          (Printf.sprintf "pending %d" pool_id)
      | Online.Coordinated c ->
        validate o c;
        respond
          [ ("result", Json.Str "coordinated"); ("queries", names_json c) ]
          ("coordinated " ^ set_names c)
      | Online.Rejected_unsafe ws ->
        respond
          [
            ("result", Json.Str "rejected_unsafe");
            ("conflicts", Json.Int (List.length ws));
          ]
          "rejected_unsafe")
    | "retire" ->
      let id = Option.get (Json.int_mem "pool_id" req) in
      if timed o `Engine (fun () -> Online.withdraw o.engine id) then
        respond [ ("result", Json.Str "withdrawn") ] "withdrawn"
      else "error not_found"
    | "flush" ->
      let fired = timed o `Engine (fun () -> Online.flush o.engine) in
      List.iter (validate o) fired;
      respond
        [
          ("result", Json.Str "flushed");
          ("fired", Json.Int (List.length fired));
          ("sets", Json.Arr (List.map names_json fired));
        ]
        ("flushed " ^ String.concat ";" (List.map set_names fired))
    | "insert" ->
      let rel = str "rel" in
      let tuple =
        match Json.mem "tuple" req with
        | Some (Json.Arr items) -> List.map value_of_json items
        | _ -> invalid_arg "insert without tuple"
      in
      timed o `Engine (fun () -> Database.insert o.db rel tuple);
      Option.iter (fun s -> Database.insert s rel tuple) o.shadow;
      respond [ ("result", Json.Str "inserted") ] "inserted"
    | "create_table" ->
      let name = str "name" in
      let attrs =
        match Json.mem "attrs" req with
        | Some (Json.Arr items) ->
          List.map (function Json.Str a -> a | _ -> invalid_arg "attrs") items
        | _ -> invalid_arg "create_table without attrs"
      in
      timed o `Engine (fun () ->
          ignore (Database.create_table' o.db name attrs));
      Option.iter (fun s -> ignore (Database.create_table' s name attrs)) o.shadow;
      respond [ ("result", Json.Str "table_created") ] "table_created"
    | op -> invalid_arg ("trace op " ^ op)
  in
  if o.timing then o.layers.ops <- o.layers.ops + 1;
  add o.digest line;
  line

let status o =
  ( Online.pending_count o.engine,
    Online.total_coordinated o.engine,
    Online.next_id o.engine )

let store_rows db =
  List.concat_map
    (fun r ->
      List.map
        (fun t -> (Relation.name r, t))
        (List.sort Tuple.compare (Relation.to_list r)))
    (List.sort
       (fun a b -> compare (Relation.name a) (Relation.name b))
       (Database.relations db))

(* Recover a served run's WAL directory and compare it with the
   oracle's final state: pool (ids and names), counters and store. *)
let check_wal o dir =
  match Durable.recover (Durable.config ~fsync:Durable.Never dir) with
  | Error why -> Error ("recover: " ^ why)
  | Ok (t, db, engine, _report) ->
    let entries e = List.map (fun (id, q) -> (id, q.Query.name)) (Online.pending_entries e) in
    let got =
      ( Online.pending_count engine,
        Online.total_coordinated engine,
        Online.next_id engine )
    in
    let result =
      if got <> status o then Error "recovered counters differ from the oracle"
      else if entries engine <> entries o.engine then
        Error "recovered pool differs from the oracle"
      else if store_rows db <> store_rows o.db then
        Error "recovered store differs from the oracle"
      else Ok ()
    in
    Durable.close t;
    result
