(* Seeded mutation fuzzing of [Parser.parse_query], the parser every
   submitted frame goes through.  Real query texts (Listgen chains,
   market seat bookings, Figure 1) are mutated by byte flips,
   truncations, insertions and duplicated tokens; for every mutant the
   parser must return a query or raise [Syntax_error], nothing else. *)

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
      ])

let alphabet = "{}(),.:-' _\"\\09azAZ\n\t"

let check_mutant ~seed mutant =
  match Parser.parse_query mutant with
  | exception Parser.Syntax_error _ -> false
  | exception e ->
    Alcotest.failf "seed %d: parse_query raised %s on %S" seed
      (Printexc.to_string e) mutant
  | (_ : Query.t) -> true

let test_mutants () =
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
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "mutated queries parse or raise Syntax_error" `Quick
      test_mutants;
  ]
