(* Seeded fuzzing of the server's frame stream.

   Each batch opens a fresh session and writes a stream of mutated
   frames into it: valid requests of every op whose payloads are
   mutated (byte flips, truncations, insertions, duplicated or dropped
   spans) and whose length prefixes are sometimes rewritten — a few
   bytes short or long, negative, or past the frame limit.  Then the
   session hangs up, mid-frame or not.  Between batches a second,
   well-behaved session sends one request of a fixed script.
   Properties:
   - [Server.step] never raises;
   - every response the fuzzed session reads is a typed reply, never
     [internal_error];
   - the well-behaved session's response bytes equal those of a
     reference run that has no fuzzed session at all.
   The script touches only its own table and relation symbols and never
   leaves an entry pending, so nothing a fuzzed request may change in
   the shared pool can reach its responses.  Seeds follow CHAOS_SEED,
   so CI runs this suite over its seed matrix. *)

open Helpers
module Online = Coordination.Online

let seeds = List.init 3 (fun k -> chaos_seed + k)
let batches_per_seed = 150
let frames_per_batch = 8

(* Split [bytes] into its complete frames' payloads; a partial tail is
   dropped. *)
let payloads_of bytes =
  let len = String.length bytes in
  let rec go off acc =
    if off + 4 > len then List.rev acc
    else
      let n = Int32.to_int (String.get_int32_be bytes off) in
      if n < 0 || off + 4 + n > len then List.rev acc
      else go (off + 4 + n) (String.sub bytes (off + 4) n :: acc)
  in
  go 0 []

(* Valid requests of every op over the fuzzed session's table F. *)
let base_payloads () =
  let rng = Prng.create 11 in
  let submits =
    List.init 6 (fun i -> Submit (random_query (Prng.int rng) i))
    |> frames |> List.concat |> List.map Json.to_string
  in
  Array.of_list
    (submits
    @ [
        {|{"id":10,"op":"status"}|};
        {|{"id":11,"op":"flush"}|};
        {|{"id":12,"op":"subscribe"}|};
        {|{"id":13,"op":"retire","pool_id":2}|};
        {|{"id":14,"op":"insert","rel":"F","tuple":[500,"Zurich"]}|};
        {|{"id":15,"op":"create_table","name":"G","attrs":["a","b"]}|};
        {|{"id":16,"op":"insert","rel":"F","tuple":[1,[2]]}|};
      ])

let alphabet = "{}[]\",:\\0123456789abcdefnrtu-. \x00\xff"

let mutant rng payloads =
  let payload = ref (Prng.pick_array rng payloads) in
  for _ = 0 to Prng.int rng 3 do
    payload := mutate ~alphabet rng !payload
  done;
  let f = Bytes.of_string (Test_server.raw_frame !payload) in
  let set_length n = Bytes.set_int32_be f 0 (Int32.of_int n) in
  (match Prng.int rng 8 with
  | 0 -> set_length (Prng.int rng (Bytes.length f + 8))
  | 1 -> set_length (-1 - Prng.int rng 1000)
  | 2 -> set_length ((1 lsl 20) + 1 + Prng.int rng 1000)
  | _ -> ());
  Bytes.to_string f

(* The well-behaved session's request for round [b]: its own table and
   relation symbols, self-firing submissions and typed refusals whose
   replies depend on the request alone. *)
let script b =
  match b mod 6 with
  | 0 ->
    Printf.sprintf
      {|{"id":%d,"op":"submit","query":"b%d: { } Bystand(B%d, x) :- Bystander(x)."}|}
      b b b
  | 1 -> Printf.sprintf {|{"id":%d,"op":"insert","rel":"Bystander","tuple":[%d]}|} b b
  | 2 -> Printf.sprintf {|{"id":%d,"op":"retire","pool_id":-1}|} b
  | 3 -> Printf.sprintf {|{"id":%d,"op":"nope"}|} b
  | 4 -> Printf.sprintf {|{"id":%d,"op":"submit","query":"b%d: { } broken"}|} b b
  | _ -> Printf.sprintf {|{"id":%d,"op":"insert","rel":"Bystander","tuple":[1,2]}|} b

type tally = { mutable replies : int; mutable refusals : int }

(* One fuzzed session: write the batch, step the server, read what it
   answered, hang up. *)
let fuzz_batch srv rng payloads tally =
  let fd = Test_server.raw_connect srv in
  let stream =
    String.concat "" (List.init frames_per_batch (fun _ -> mutant rng payloads))
  in
  ignore (Unix.write_substring fd stream 0 (String.length stream));
  for _ = 1 to 4 do
    ignore (Server.step ~timeout:0.0 srv)
  done;
  Unix.set_nonblock fd;
  let inb = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes inb chunk 0 n;
      drain ()
    | exception
        Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ECONNRESET | EINTR), _, _) ->
      ()
  in
  drain ();
  Unix.close fd;
  List.iter
    (fun payload ->
      match Json.parse payload with
      | Error why -> Alcotest.failf "unparsable reply %S: %s" payload why
      | Ok reply -> (
        match Json.str_mem "error" reply with
        | Some "internal_error" ->
          Alcotest.failf "untyped failure: %s" payload
        | Some _ -> tally.refusals <- tally.refusals + 1
        | None -> tally.replies <- tally.replies + 1))
    (payloads_of (Buffer.contents inb))

(* The well-behaved session's response bytes, with or without fuzzed
   sessions between its requests. *)
let run ~fuzz seed =
  let db = mk_db () in
  let srv =
    mk_server ~max_pending:max_int db
      (Server.Sequential (Online.create db))
  in
  let fd = Test_server.raw_connect srv in
  let rng = Prng.create seed and payloads = base_payloads () in
  let tally = { replies = 0; refusals = 0 } in
  let out = Buffer.create 4096 in
  let ask payload =
    Buffer.add_string out (Test_server.raw_exchange ~ctx:payload srv fd payload)
  in
  ask {|{"id":0,"op":"create_table","name":"Bystander","attrs":["k"]}|};
  for b = 1 to batches_per_seed do
    if fuzz then fuzz_batch srv rng payloads tally;
    ask (script b)
  done;
  Unix.close fd;
  pump srv;
  Server.stop srv;
  (Buffer.contents out, tally)

let test_frame_stream () =
  List.iter
    (fun seed ->
      let reference, _ = run ~fuzz:false seed in
      let fuzzed, tally = run ~fuzz:true seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: well-behaved session unchanged" seed)
        reference fuzzed;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: replies and refusals both seen" seed)
        true
        (tally.replies > 0 && tally.refusals > 0))
    seeds

let suite =
  [
    Alcotest.test_case "mutated frame streams leave other sessions alone"
      `Quick test_frame_stream;
  ]
