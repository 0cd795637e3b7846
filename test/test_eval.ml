(* Conjunctive-query evaluation: unit cases plus randomized agreement
   with the reference evaluators in Eval_oracle. *)

open Relational
open Helpers

let q atoms = Cq.make atoms

let test_single_atom () =
  let db = flights_db () in
  let query = q [ atom "F" [ var "x"; cs "Zurich" ] ] in
  match Eval.find_first db query with
  | None -> Alcotest.fail "expected a result"
  | Some b ->
    let fid = Eval.Binding.find "x" b in
    Alcotest.(check bool) "zurich flight" true
      (Value.equal fid (vi 101) || Value.equal fid (vi 102))

let test_join () =
  let db = flights_db () in
  (* Destination with both a flight and a hotel. *)
  let query =
    q [ atom "F" [ var "f"; var "d" ]; atom "H" [ var "h"; var "d" ] ]
  in
  let results = Eval.find_all db query in
  (* Zurich: 2 flights x 1 hotel; Paris: 1 x 1; Athens: 1 x 1 = 4. *)
  Alcotest.(check int) "join size" 4 (List.length results);
  List.iter
    (fun b ->
      let d = Eval.Binding.find "d" b in
      Alcotest.(check bool) "dest consistent" true
        (List.exists (Value.equal d) [ vs "Zurich"; vs "Paris"; vs "Athens" ]))
    results

let test_unsatisfiable () =
  let db = flights_db () in
  Alcotest.(check bool) "no Rome" false
    (Eval.satisfiable db (q [ atom "F" [ var "x"; cs "Rome" ] ]))

let test_empty_query () =
  let db = flights_db () in
  match Eval.find_first db (q []) with
  | Some b -> Alcotest.(check int) "empty binding" 0 (Eval.Binding.cardinal b)
  | None -> Alcotest.fail "empty query must succeed"

let test_repeated_variable () =
  let db = Database.create () in
  ignore (Database.create_table' db "E" [ "a"; "b" ]);
  Database.insert db "E" [ vi 1; vi 2 ];
  Database.insert db "E" [ vi 3; vi 3 ];
  let results = Eval.find_all db (q [ atom "E" [ var "x"; var "x" ] ]) in
  Alcotest.(check int) "diagonal only" 1 (List.length results);
  Alcotest.check value_t "bound to 3" (vi 3)
    (Eval.Binding.find "x" (List.hd results))

let test_limit () =
  let db = flights_db () in
  let results = Eval.find_all ~limit:1 db (q [ atom "F" [ var "x"; var "y" ] ]) in
  Alcotest.(check int) "limit respected" 1 (List.length results)

let test_count () =
  let db = flights_db () in
  Alcotest.(check int) "count flights" 4
    (Eval.count db (q [ atom "F" [ var "x"; var "y" ] ]))

let test_unknown_relation () =
  let db = flights_db () in
  Alcotest.check_raises "unknown" (Eval.Unknown_relation "Nope") (fun () ->
      ignore (Eval.find_first db (q [ atom "Nope" [ var "x" ] ])))

let test_arity_mismatch () =
  let db = flights_db () in
  Alcotest.check_raises "arity" (Eval.Arity_mismatch ("F", 1, 2)) (fun () ->
      ignore (Eval.find_first db (q [ atom "F" [ var "x" ] ])))

let test_probe_counting () =
  let db = flights_db () in
  Database.reset_probes db;
  ignore (Eval.find_first db (q [ atom "F" [ var "x"; var "y" ] ]));
  ignore (Eval.find_all db (q [ atom "F" [ var "x"; var "y" ] ]));
  ignore (Eval.satisfiable db (q [ atom "F" [ var "x"; var "y" ] ]));
  Alcotest.(check int) "three probes" 3 (Database.probes db)

let test_distinct_projections () =
  let db = flights_db () in
  let s =
    Eval.distinct_projections db (q [ atom "F" [ var "x"; var "d" ] ]) [ "d" ]
  in
  Alcotest.(check int) "three destinations" 3 (Tuple.Set.cardinal s);
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Eval.distinct_projections: zz not in query") (fun () ->
      ignore (Eval.distinct_projections db (q [ atom "F" [ var "x"; var "d" ] ]) [ "zz" ]))

let test_check_ground () =
  let db = flights_db () in
  Alcotest.(check bool) "present" true
    (Eval.check_ground db (q [ atom "F" [ ci 101; cs "Zurich" ] ]));
  Alcotest.(check bool) "absent" false
    (Eval.check_ground db (q [ atom "F" [ ci 101; cs "Paris" ] ]))

(* The compiled plan's order and access paths, as {!Plan.pp} renders
   them (the first line is the shape key). *)
let plan_steps db query =
  let plan, _ = Database.prepare db query in
  List.tl (String.split_on_char '\n' (Format.asprintf "%a" Plan.pp plan))

let test_explain_plan () =
  let db = Database.create () in
  ignore (Database.create_table' db "Edge" [ "a"; "b" ]);
  ignore (Database.create_table' db "Mark" [ "a" ]);
  for i = 0 to 99 do
    Database.insert db "Edge" [ vi i; vi ((i + 1) mod 100) ]
  done;
  Database.insert db "Mark" [ vi 7 ];
  (* Adversarial syntactic order: big scan first, selective atoms last.
     With no constant to index on, the small Mark scan goes first, then
     the Edge atoms walk through bound columns. *)
  let query =
    q
      [
        atom "Edge" [ var "x"; var "y" ];
        atom "Edge" [ var "y"; var "z" ];
        atom "Mark" [ var "z" ];
      ]
  in
  Alcotest.(check (list string))
    "mark scanned first, edges via bound index"
    [
      "1. Mark(s2) via scan";
      "2. Edge(s1, s2) via index col 1 = s2";
      "3. Edge(s0, s1) via index col 1 = s1";
    ]
    (plan_steps db query);
  (* A constant column shows as an index access on its parameter. *)
  Alcotest.(check (list string))
    "index on the constant" [ "1. Edge(p0, s0) via index col 0 = p0" ]
    (plan_steps db (q [ atom "Edge" [ ci 3; var "y" ] ]));
  (* Ground atoms become membership tests. *)
  Alcotest.(check (list string))
    "membership" [ "1. Mark(p0) via membership" ]
    (plan_steps db (q [ atom "Mark" [ ci 7 ] ]))

(* Randomized agreement with the reference evaluators on small
   instances. *)

let gen_instance =
  QCheck.Gen.(
    let* nr = int_range 1 6 in
    let* ns = int_range 0 6 in
    let* r_rows = list_size (return nr) (pair (int_range 0 3) (int_range 0 3)) in
    let* s_rows = list_size (return ns) (int_range 0 3) in
    let gen_term =
      oneof
        [
          map (fun i -> Term.Var (Printf.sprintf "v%d" i)) (int_range 0 3);
          map Term.int (int_range 0 3);
        ]
    in
    let gen_atom =
      oneof
        [
          map (fun (a, b) -> { Cq.rel = "R"; args = [| a; b |] }) (pair gen_term gen_term);
          map (fun a -> { Cq.rel = "S"; args = [| a |] }) gen_term;
        ]
    in
    let* atoms = list_size (int_range 1 4) gen_atom in
    return (r_rows, s_rows, atoms))

let build_instance (r_rows, s_rows, atoms) =
  let db = Database.create () in
  ignore (Database.create_table' db "R" [ "a"; "b" ]);
  ignore (Database.create_table' db "S" [ "a" ]);
  List.iter (fun (a, b) -> Database.insert db "R" [ vi a; vi b ]) r_rows;
  List.iter (fun a -> Database.insert db "S" [ vi a ]) s_rows;
  (db, Cq.make atoms)

let instance_arb =
  QCheck.make
    ~print:(fun (_, _, atoms) -> Format.asprintf "%a" Cq.pp (Cq.make atoms))
    gen_instance

let suite =
  [
    Alcotest.test_case "single atom" `Quick test_single_atom;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable;
    Alcotest.test_case "empty query" `Quick test_empty_query;
    Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
    Alcotest.test_case "limit" `Quick test_limit;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "probe counting" `Quick test_probe_counting;
    Alcotest.test_case "distinct projections" `Quick test_distinct_projections;
    Alcotest.test_case "explain plan" `Quick test_explain_plan;
    Alcotest.test_case "check ground" `Quick test_check_ground;
    qtest ~count:300 "backtracking join = naive semantics" instance_arb
      (fun inst ->
        let db, query = build_instance inst in
        valuations_equal (Eval.find_all db query) (Eval_oracle.naive db query));
    qtest ~count:200 "find_first consistent with find_all" instance_arb
      (fun inst ->
        let db, query = build_instance inst in
        match (Eval.find_first db query, Eval.find_all db query) with
        | None, [] -> true
        | Some _, _ :: _ -> true
        | _ -> false);
    qtest ~count:200 "count = length find_all" instance_arb (fun inst ->
        let db, query = build_instance inst in
        Eval.count db query = List.length (Eval.find_all db query));
    qtest ~count:300 "compiled = interpreted" instance_arb (fun inst ->
        let db, query = build_instance inst in
        valuations_equal (Eval_oracle.greedy db query) (Eval.find_all db query));
  ]
