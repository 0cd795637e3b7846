(* Reference encoders for the durable layer's snapshot images.

   [encode] is the straightforward version-2 payload, built from
   intermediate lists: each table's name, attributes, cardinal and live
   tuples in [Relation.to_list] order, values inline.  [Durable] encodes
   the same bytes in one buffer pass; test_durable's byte-identity case
   checks every snapshot file it writes against it.

   [encode_v1] is the version-1 payload older writers produced: the
   tuples of each table sorted with [List.sort Tuple.compare], stored as
   references into a dictionary of every value in order of first use.
   Recovery still reads it, and [image] wraps either payload in its file
   bytes so tests can put an old image in a WAL directory. *)

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

(* Meta bytes (backend 0, evaluate on arrival 1, consume, selection 0),
   the id allocator and the satisfied count; then [store]; then the
   pool. *)
let payload ~store (db : Database.t) engine =
  let b = Buffer.create 4096 in
  List.iter (u8 b) [ 0; 1; Bool.to_int (Online.consume engine); 0 ];
  u32 b (Online.next_id engine);
  u32 b (Online.total_coordinated engine);
  store b (Database.relations db);
  list b
    (fun b (id, query) ->
      u32 b id;
      str b (Printer_oracle.query_to_string query))
    (Online.pending_entries engine);
  Buffer.contents b

let header b r =
  let schema = Relation.schema r in
  str b (Schema.name schema);
  list b str (Array.to_list (Schema.attributes schema))

let encode ~db engine =
  payload db engine ~store:(fun b rels ->
      list b
        (fun b r ->
          header b r;
          list b (fun b t -> Array.iter (value b) t) (Relation.to_list r))
        rels)

let encode_v1 ~db engine =
  payload db engine ~store:(fun b rels ->
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
            ( r,
              List.sort Tuple.compare (Relation.to_list r)
              |> List.map (fun tuple -> Array.map intern tuple) ))
          rels
      in
      list b value (List.rev !dict_order);
      list b
        (fun b (r, tuples) ->
          header b r;
          list b
            (fun b refs ->
              u32 b (Array.length refs);
              Array.iter (u32 b) refs)
            tuples)
        tables)

(* A [snap-*.img] file: magic 8 | lsn 8 | length 4 | payload | crc 4. *)
let image ~magic ~lsn payload =
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic;
  Buffer.add_int64_le b lsn;
  u32 b (String.length payload);
  Buffer.add_string b payload;
  let p = Bytes.unsafe_of_string payload in
  u32 b (Crc32_oracle.bytes p 0 (Bytes.length p));
  Buffer.contents b

let payload_of_file data = String.sub data 20 (String.length data - 24)
