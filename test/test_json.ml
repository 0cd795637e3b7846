(* Seeded mutation fuzzing of the one JSON codec.  Valid request frames
   and real Obs sink output are mutated by byte flips, truncations,
   insertions and duplicated escapes; for every mutant [Json.parse]
   must return [Ok] or [Error] without raising, the same value or the
   same error message as the reference parser (test/json_oracle.ml),
   also when the mutant is parsed as a slice of a larger string, and
   every [Ok v] must print stably:
   [to_string (parse (to_string v)) = to_string v].  Seeds 1-3 always
   run, and three more follow CHAOS_SEED. *)

let frames =
  [
    {|{"id":1,"op":"submit","query":"qa: { R(G1, y) } R(G0, x) :- F(x, Zurich)."}|};
    {|{"id":2,"op":"insert","rel":"F","tuple":[101,"Zurich",true,null]}|};
    {|{"id":3,"op":"create_table","name":"F","attrs":["fid","dest"]}|};
    {|{"id":-4,"op":"retire","pool_id":7,"x":[1.5e3,-0.25,{}, []]}|};
    {|{"op":"submit","query":"qb: { R('\ud83d\ude00', y) } R('\u00e9\n\t\"', x)."}|};
    {|{"id":"s\\\/\b\f\r","op":"status"}|};
    (* Floats %.12g alone would not print back: overflow to infinity
       prints as null, negative zero as -0.0. *)
    {|[1e999,-1e999,-0.0,-1e-400,-0]|};
    (* Integers at and past the edges of the in-place read: 18 digits,
       19, max_int and min_int, one past each, leading zeros, a sign. *)
    {|[123456789012345678,-999999999999999999,9999999999999999999,4611686018427387903,4611686018427387904,-4611686018427387904,-4611686018427387905,0000000000000000000042,+5]|};
  ]

(* Spans and events whose args carry every escape class the sinks
   write, rendered through both serializing sinks and the metrics
   exporter.  Their timestamps differ run to run, so a failure message
   quotes the offending mutant in full rather than relying on the seed
   alone to replay it. *)
let sink_lines () =
  let traced () =
    Obs.with_span "outer \"q\""
      ~args:(fun () ->
        [ ("rels", Obs.Str "F\n\tG\001\\"); ("n", Obs.Int (-3)) ])
      (fun () ->
        Obs.event "ev"
          ~args:(fun () -> [ ("x", Obs.Float 2.5); ("ok", Obs.Bool true) ]))
  in
  let render sink_of =
    let buf = Buffer.create 256 in
    Obs.with_sink (sink_of (Buffer.add_string buf)) traced;
    Buffer.contents buf
  in
  let jsonl =
    String.split_on_char '\n' (render Obs.jsonl_sink)
    |> List.filter (fun l -> l <> "")
  in
  render Obs.chrome_sink :: Obs.metrics_json () :: jsonl

let alphabet = {|{}[],:"\u0123456789abcdefABCDEFeE.-+ ntrl|}

let random_byte rng =
  if Prng.bool rng then alphabet.[Prng.int rng (String.length alphabet)]
  else Char.chr (Prng.int rng 256)

let mutate rng s =
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
  | _ -> (
    (* Duplicate (a prefix of) one escape sequence in place, e.g. a
       high surrogate's \uXXXX twice or a dangling backslash. *)
    let escapes =
      List.filter (fun i -> s.[i] = '\\') (List.init n Fun.id)
    in
    match escapes with
    | [] -> s
    | _ ->
      let i = Prng.pick rng escapes in
      let len = min (n - i) (1 + Prng.int rng 6) in
      String.sub s 0 (i + len) ^ String.sub s i (n - i))

let show = function
  | Ok v -> "Ok " ^ Json_oracle.to_string v
  | Error m -> "Error " ^ m

let check_mutant ~seed mutant =
  let parsed = Json.parse mutant in
  (match parsed with
  | exception e ->
    Alcotest.failf "seed %d: parse raised %s on %S" seed (Printexc.to_string e)
      mutant
  | _ -> ());
  let reference = Json_oracle.parse mutant in
  if parsed <> reference then
    Alcotest.failf "seed %d: %S parses as %s, the reference as %s" seed mutant
      (show parsed) (show reference);
  (* The same bytes between other bytes: offsets count from the slice. *)
  let framed = "\"[" ^ mutant ^ "]\"" in
  if Json.parse_slice framed 2 (String.length mutant) <> parsed then
    Alcotest.failf "seed %d: %S parses differently as a slice" seed mutant;
  match parsed with
  | Error _ -> false
  | Ok v ->
    let printed = Json.to_string v in
    if Result.map Json.to_string (Json.parse printed) <> Ok printed then
      Alcotest.failf "seed %d: %S prints as %S, which does not print back"
        seed mutant printed;
    true

let test_mutants () =
  let seeds = frames @ sink_lines () |> Array.of_list in
  Array.iter
    (fun s ->
      if not (check_mutant ~seed:0 s) then Alcotest.failf "seed input %S" s)
    seeds;
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let accepted = ref 0 in
      for _ = 1 to 50_000 do
        let s = ref (Prng.pick_array rng seeds) in
        for _ = 0 to Prng.int rng 3 do
          s := mutate rng !s
        done;
        if check_mutant ~seed !s then incr accepted
      done;
      (* Some mutants (a flipped digit, an inserted space) stay valid,
         so the stable-print property is exercised, not vacuous. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some mutants parse" seed)
        true (!accepted > 0))
    ([ 1; 2; 3 ] @ List.init 3 (fun k -> Helpers.chaos_seed + k))

(* Values with every escape class, integers at both ends of the range
   and floats that print specially (infinities, nan, negative zero). *)
let gen_value =
  QCheck.Gen.(
    let str =
      oneof
        [
          oneofl [ ""; "Zurich"; "a\"b"; "\\"; "\n\r\t"; "\001\031\127\255" ];
          string_size ~gen:char (int_range 0 8);
        ]
    in
    let scalar =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i)
            (oneof [ int_range (-1000) 1000; int; oneofl [ min_int; max_int ] ]);
          map (fun f -> Json.Float f)
            (oneof
               [ float; oneofl [ infinity; neg_infinity; nan; -0.0; 0.0; 1e300 ] ]);
          map (fun s -> Json.Str s) str;
        ]
    in
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           if depth = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
               ]))

let suite =
  [
    Alcotest.test_case "mutated frames and sink lines never raise" `Quick
      test_mutants;
    Helpers.qtest ~count:2000 "printer equals the reference printer"
      (QCheck.make ~print:Json_oracle.to_string gen_value)
      (fun v ->
        let b = Buffer.create 16 in
        Buffer.add_string b "prefix";
        Json.to_buffer b v;
        let reference = Json_oracle.to_string v in
        Json.to_string v = reference && Buffer.contents b = "prefix" ^ reference);
  ]
