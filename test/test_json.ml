(* Seeded mutation fuzzing of the one JSON codec.  Valid request frames
   and real Obs sink output are mutated by byte flips, truncations,
   insertions and duplicated escapes; for every mutant [Json.parse]
   must return [Ok] or [Error] without raising, and every [Ok v] must
   print stably: [to_string (parse (to_string v)) = to_string v]. *)

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

let check_mutant ~seed mutant =
  match Json.parse mutant with
  | exception e ->
    Alcotest.failf "seed %d: parse raised %s on %S" seed (Printexc.to_string e)
      mutant
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
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "mutated frames and sink lines never raise" `Quick
      test_mutants;
  ]
