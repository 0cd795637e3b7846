(* Seeded mutation fuzzing of [Parser.parse_query], the parser every
   submitted frame goes through.  Real query texts (Listgen chains,
   market seat bookings, Figure 1) are mutated by byte flips,
   truncations, insertions and duplicated tokens; for every mutant the
   parser must return a query or raise [Syntax_error], nothing else,
   and [parse_query] and [parse_program] must each return a value equal
   to the reference parser's (test/parser_oracle.ml) or raise the same
   [Syntax_error (line, msg)].  Seeds 1-3 always run, and three more
   follow CHAOS_SEED. *)

open Entangled

let figure1 =
  [
    "query qC: { R(G, x1) } R(C, x1), Q(C, x2) :- F(x1, x), H(x2, x).";
    "query qG: { R(C, y1), Q(C, y2) } R(G, y1), Q(G, y2) :- F(y1, Paris), \
     H(y2, Paris).";
    "query qJ: { R(C, z1), R(G, z1) } R(J, z1), Q(J, z2) :- F(z1, Athens), \
     H(z2, Athens).";
    "query qW: { R(C, w1), Q(J, w2) } R(W, w1), Q(W, w2) :- F(w1, Madrid), \
     H(w2, Madrid).";
  ]

(* The shape market buyers submit: one seat of a kind on a flight. *)
let market =
  List.map
    (fun (me, partner, kind) ->
      Parser.query_to_string
        (Query.make ~name:me
           ~post:[ Helpers.atom "R" [ Helpers.cs partner; Helpers.var "y" ] ]
           ~head:[ Helpers.atom "R" [ Helpers.cs me; Helpers.var "x" ] ]
           [
             Helpers.atom "Seats"
               [ Helpers.cs "F17"; Helpers.cs kind; Helpers.var "x" ];
           ]))
    [ ("a12", "b12", "W"); ("b12", "a12", "A") ]

let inputs () =
  let _, chain = Workload.Listgen.make ~rows:10 ~topics:5 ~seed:7 4 in
  Array.of_list
    ((List.map Parser.query_to_string chain @ market @ figure1)
    @ [
        "q: { } R(-7, 'it s', true) :- .";
        "{R(a, b)} S(c) :- T(c), U(d, 12).";
        "query m:\n-- a buyer\n{ R(B, y) }\n  R(A, x) :- Seats(F17, 'W\\'', x),\n\
         \  T(\"two\nlines\", -4611686018427387904).";
      ])

let alphabet = "{}(),.:-' _\"\\09azAZ\n\t"

type 'a outcome = Parsed of 'a | Failed of int * string

let outcome ~seed name parse mutant =
  match parse mutant with
  | v -> Parsed v
  | exception Parser.Syntax_error (line, msg) -> Failed (line, msg)
  | exception e ->
    Alcotest.failf "seed %d: %s raised %s on %S" seed name
      (Printexc.to_string e) mutant

let show = function
  | Parsed _ -> "a value"
  | Failed (line, msg) -> Printf.sprintf "Syntax_error (%d, %S)" line msg

let same ~seed name parse reference mutant =
  let got = outcome ~seed name parse mutant
  and want = outcome ~seed ("reference " ^ name) reference mutant in
  if got <> want then
    Alcotest.failf "seed %d: %s gives %s on %S, the reference %s" seed name
      (show got) mutant (show want);
  got

let check_mutant ~seed mutant =
  ignore
    (same ~seed "parse_program" Parser.parse_program Parser_oracle.parse_program
       mutant);
  match
    same ~seed "parse_query" Parser.parse_query Parser_oracle.parse_query mutant
  with
  | Failed _ -> false
  | Parsed (_ : Query.t) -> true

(* Integer literals at and past the edges of the in-place read, and
   errors after a lexical error or before one. *)
let edge_cases =
  [
    "q: { } R(123456789012345678, -999999999999999999).";
    "q: { } R(9999999999999999999).";
    "q: { } R(4611686018427387903, -4611686018427387904).";
    "q: { } R(4611686018427387904).";
    "q: { } R(-4611686018427387905).";
    "q: { } R(x) :- F(x).\n@";
    "q: { } R(x) F(x).\n'open";
    "q R(x).";
  ]

let test_mutants () =
  List.iter (fun s -> ignore (check_mutant ~seed:0 s)) edge_cases;
  let inputs = inputs () in
  Array.iter
    (fun s ->
      if not (check_mutant ~seed:0 s) then Alcotest.failf "seed input %S" s)
    inputs;
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let accepted = ref 0 in
      for _ = 1 to 50_000 do
        let s = ref (Prng.pick_array rng inputs) in
        for _ = 0 to Prng.int rng 3 do
          s := Helpers.mutate ~alphabet rng !s
        done;
        if check_mutant ~seed !s then incr accepted
      done;
      (* Some mutants (a renamed variable, a changed constant) still
         parse, so both outcomes are exercised. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some mutants parse" seed)
        true (!accepted > 0))
    ([ 1; 2; 3 ] @ List.init 3 (fun k -> Helpers.chaos_seed + k))

let suite =
  [
    Alcotest.test_case "mutated queries parse or raise Syntax_error" `Quick
      test_mutants;
  ]
