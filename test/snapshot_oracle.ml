(* Reference encoder for the durable layer's snapshot payload.

   The straightforward encoding the layout was defined by: sort each
   relation's live tuples with [List.sort Tuple.compare], intern every
   value through a polymorphic [Hashtbl] in order of first use, and
   build the payload from intermediate lists.  [Durable] encodes the
   same bytes with an incremental sorted order, a value-specialised
   table and one buffer pass; test_durable's byte-identity case checks
   every snapshot file it writes against [encode]. *)

open Relational
module Online = Coordination.Online

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

let value b = function
  | Value.Int n ->
    u8 b 0;
    Buffer.add_int64_le b (Int64.of_int n)
  | Value.Str s ->
    u8 b 1;
    str b s
  | Value.Bool v ->
    u8 b 2;
    u8 b (if v then 1 else 0)

let list b f xs =
  u32 b (List.length xs);
  List.iter (f b) xs

(* Meta bytes: backend 0, evaluate on arrival 1, consume, selection 0. *)
let encode ~(db : Database.t) engine =
  let b = Buffer.create 4096 in
  List.iter (u8 b) [ 0; 1; Bool.to_int (Online.consume engine); 0 ];
  u32 b (Online.next_id engine);
  u32 b (Online.total_coordinated engine);
  let dict = Hashtbl.create 256 in
  let dict_order = ref [] in
  let intern v =
    match Hashtbl.find_opt dict v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length dict in
      Hashtbl.add dict v i;
      dict_order := v :: !dict_order;
      i
  in
  let tables =
    List.map
      (fun r ->
        let schema = Relation.schema r in
        let tuples =
          List.sort Tuple.compare (Relation.to_list r)
          |> List.map (fun tuple -> Array.map intern tuple)
        in
        (Schema.name schema, Array.to_list (Schema.attributes schema), tuples))
      (Database.relations db)
  in
  list b value (List.rev !dict_order);
  list b
    (fun b (name, attrs, tuples) ->
      str b name;
      list b str attrs;
      list b
        (fun b refs ->
          u32 b (Array.length refs);
          Array.iter (u32 b) refs)
        tuples)
    tables;
  list b
    (fun b (id, query) ->
      u32 b id;
      str b (Printer_oracle.query_to_string query))
    (Online.pending_entries engine);
  Buffer.contents b

(* The payload of a [snap-*.img] file: magic 8 | lsn 8 | length 4 |
   payload | crc 4. *)
let payload_of_file data = String.sub data 20 (String.length data - 24)
