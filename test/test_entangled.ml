(* The entangled core: substitutions/unification, query well-formedness,
   the parser, coordination graphs, safety/uniqueness, combine/ground,
   and the independent Definition-1 validator. *)

open Relational
open Entangled
open Helpers

(* ----------------------------- Subst ------------------------------ *)

let test_unify_terms () =
  let s = Subst_oracle.empty in
  (match Subst_oracle.unify_terms s (var "x") (ci 1) with
  | None -> Alcotest.fail "var/const must unify"
  | Some s -> Alcotest.check term_t "resolved" (ci 1) (Subst_oracle.resolve s (var "x")));
  Alcotest.(check bool) "const clash" true
    (Subst_oracle.unify_terms s (ci 1) (ci 2) = None);
  Alcotest.(check bool) "const same" true
    (Subst_oracle.unify_terms s (ci 1) (ci 1) <> None)

let test_unify_chain () =
  (* x = y, y = z, z = 5 resolves x to 5. *)
  let s = Subst_oracle.empty in
  let s = Option.get (Subst_oracle.unify_terms s (var "x") (var "y")) in
  let s = Option.get (Subst_oracle.unify_terms s (var "y") (var "z")) in
  let s = Option.get (Subst_oracle.unify_terms s (var "z") (ci 5)) in
  Alcotest.check term_t "x -> 5" (ci 5) (Subst_oracle.resolve s (var "x"));
  (* Late clash through a chain is detected. *)
  Alcotest.(check bool) "clash via chain" true
    (Subst_oracle.unify_terms s (var "x") (ci 6) = None)

let test_unify_atoms () =
  let a = atom "R" [ cs "C"; var "x" ] and b = atom "R" [ cs "C"; var "y" ] in
  (match Subst_oracle.unify_atoms Subst_oracle.empty a b with
  | None -> Alcotest.fail "unifiable"
  | Some s ->
    Alcotest.check term_t "x ~ y" (Subst_oracle.resolve s (var "x"))
      (Subst_oracle.resolve s (var "y")));
  Alcotest.(check bool) "different rel" true
    (Subst_oracle.unify_atoms Subst_oracle.empty a (atom "Q" [ cs "C"; var "y" ]) = None);
  Alcotest.(check bool) "different arity" true
    (Subst_oracle.unify_atoms Subst_oracle.empty a (atom "R" [ cs "C" ]) = None);
  Alcotest.(check bool) "const clash" true
    (Subst_oracle.unify_atoms Subst_oracle.empty (atom "R" [ cs "C"; ci 1 ])
       (atom "R" [ cs "C"; ci 2 ])
    = None);
  (* Repeated variable: R(x, x) vs R(1, 2) must fail. *)
  Alcotest.(check bool) "repeated var" true
    (Subst_oracle.unify_atoms Subst_oracle.empty (atom "R" [ var "x"; var "x" ])
       (atom "R" [ ci 1; ci 2 ])
    = None)

let test_subst_apply () =
  let s = Option.get (Subst_oracle.unify_terms Subst_oracle.empty (var "x") (ci 7)) in
  let q = Cq.make [ atom "F" [ var "x"; var "y" ] ] in
  let q' = Subst_oracle.apply_cq s q in
  Alcotest.(check string) "applied" "F(7, y)" (Format.asprintf "%a" Cq.pp q')

(* qcheck: unification soundness on random atom pairs. *)
let gen_atom =
  QCheck.Gen.(
    let gen_term =
      oneof
        [
          map (fun i -> Term.Var (Printf.sprintf "v%d" i)) (int_range 0 3);
          map Term.int (int_range 0 2);
        ]
    in
    let* rel = oneofl [ "R"; "Q" ] in
    let* args = list_size (int_range 1 3) gen_term in
    return { Cq.rel; args = Array.of_list args })

let atom_arb =
  QCheck.make ~print:(Format.asprintf "%a" Cq.pp_atom) gen_atom

(* ----------------------------- Query ------------------------------ *)

let test_query_make () =
  let q =
    Query.make ~name:"q" ~post:[ atom "R" [ cs "C"; var "x" ] ]
      ~head:[ atom "R" [ cs "G"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  Alcotest.(check (list string)) "vars" [ "x" ] (Query.variables q);
  Alcotest.(check (list string)) "answer rels" [ "R" ] (Query.answer_relations q);
  Alcotest.(check (list string)) "body rels" [ "F" ] (Query.body_relations q);
  Alcotest.(check bool) "range restricted" true (Query.range_restricted q);
  Alcotest.check_raises "empty head" (Invalid_argument "Query.make: empty head")
    (fun () -> ignore (Query.make ~post:[] ~head:[] []))

let test_query_rename () =
  let q =
    Query.make ~post:[ atom "R" [ var "x" ] ] ~head:[ atom "S" [ var "x" ] ]
      [ atom "F" [ var "x" ] ]
  in
  let qs = Query.rename_set [ q; q ] in
  Alcotest.(check (list string)) "renamed 0" [ "q0.x" ] (Query.variables qs.(0));
  Alcotest.(check (list string)) "renamed 1" [ "q1.x" ] (Query.variables qs.(1));
  Alcotest.(check string) "default name" "q0" qs.(0).Query.name

let test_query_well_formed () =
  let db = flights_db () in
  let good =
    Query.make ~post:[] ~head:[ atom "R" [ var "x" ] ] [ atom "F" [ var "x"; var "d" ] ]
  in
  Alcotest.(check bool) "good" true (Query.well_formed db good = Ok ());
  let bad_body =
    Query.make ~post:[] ~head:[ atom "R" [ var "x" ] ] [ atom "Nope" [ var "x" ] ]
  in
  Alcotest.(check bool) "bad body rel" true (Result.is_error (Query.well_formed db bad_body));
  let clash =
    Query.make ~post:[] ~head:[ atom "F" [ var "x"; var "d" ] ] []
  in
  Alcotest.(check bool) "answer rel collides" true
    (Result.is_error (Query.well_formed db clash));
  let arity =
    Query.make ~post:[ atom "R" [ var "x" ] ] ~head:[ atom "R" [ var "x"; var "y" ] ] []
  in
  Alcotest.(check bool) "inconsistent arity" true
    (Result.is_error (Query.well_formed db arity))

(* ----------------------------- Parser ----------------------------- *)

let test_parse_query () =
  let q =
    Parser.parse_query
      "query gwyneth: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich)."
  in
  Alcotest.(check string) "name" "gwyneth" q.Query.name;
  Alcotest.(check int) "posts" 1 (List.length q.Query.post);
  Alcotest.(check int) "heads" 1 (List.length q.Query.head);
  Alcotest.(check int) "body" 1 (List.length q.Query.body.Cq.atoms)

let test_parse_conventions () =
  let q = Parser.parse_query "{ } R(x, 'New York', true, 42, Cap) :- F(x)." in
  match (List.hd q.Query.head).Cq.args with
  | [| a; b; c; d; e |] ->
    Alcotest.check term_t "var" (var "x") a;
    Alcotest.check term_t "quoted" (cs "New York") b;
    Alcotest.check term_t "bool" (cst (Value.bool true)) c;
    Alcotest.check term_t "int" (ci 42) d;
    Alcotest.check term_t "capitalized const" (cs "Cap") e
  | _ -> Alcotest.fail "arity"

let test_parse_empty_body () =
  let q1 = Parser.parse_query "{ R(a1) } C(1)." in
  let q2 = Parser.parse_query "{ R(a1) } C(1) :- ." in
  Alcotest.(check int) "no body" 0 (List.length q1.Query.body.Cq.atoms);
  Alcotest.(check int) "explicit empty body" 0 (List.length q2.Query.body.Cq.atoms)

let test_parse_program () =
  let db = Database.create () in
  let qs = figure1_queries db in
  Alcotest.(check int) "four queries" 4 (List.length qs);
  Alcotest.(check int) "flights loaded" 3
    (Relation.cardinal (Database.relation db "F"));
  Alcotest.(check (list string)) "names" [ "qC"; "qG"; "qJ"; "qW" ]
    (List.map (fun q -> q.Query.name) qs)

let test_parse_errors () =
  let bad_cases =
    [
      "query q: { R(x) }";                 (* missing head/dot *)
      "query q: { R(x) } :- F(x).";        (* empty head *)
      "fact F(x).";                        (* variable in fact *)
      "{ R( } S(x).";                      (* bad atom *)
      "query q: { R(x) } S(x) :- F(x)";    (* missing final dot *)
      "query q: { } S(99999999999999999999).";  (* int out of range *)
    ]
  in
  List.iter
    (fun src ->
      let raised =
        try
          ignore (Parser.parse_program ("table F(a). " ^ src));
          (try ignore (Parser.parse_query src); false with Parser.Syntax_error _ -> true)
        with Parser.Syntax_error _ -> true
      in
      Alcotest.(check bool) ("rejects: " ^ src) true raised)
    bad_cases

let test_parse_comments () =
  let p =
    Parser.parse_program
      "-- a comment\ntable F(a). -- trailing\nfact F(1).\n-- done"
  in
  Alcotest.(check int) "two statements" 2 (List.length p)

let test_query_to_string_roundtrip () =
  let src = "query g: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich)." in
  let q = Parser.parse_query src in
  let q' = Parser.parse_query (Parser.query_to_string q) in
  Alcotest.(check bool) "roundtrip" true (Query.equal q q');
  (* Lowercase string constants must come back as constants, not
     variables (they print quoted). *)
  let tricky =
    Query.make ~name:"t" ~post:[]
      ~head:[ atom "R" [ cs "u1"; var "x" ] ]
      [ atom "Posts" [ var "x"; cs "t4" ] ]
  in
  let tricky' = Parser.parse_query (Parser.query_to_string tricky) in
  Alcotest.(check bool) "lowercase constants survive" true
    (Query.equal tricky tricky');
  Alcotest.(check string) "quoted rendering" "'t4'"
    (Parser.value_to_syntax (Value.str "t4"));
  Alcotest.(check string) "bare rendering" "Zurich"
    (Parser.value_to_syntax (Value.str "Zurich"));
  Alcotest.(check string) "int rendering" "7"
    (Parser.value_to_syntax (Value.int 7))

(* ----------------------- Coordination graph ----------------------- *)

let test_compatible () =
  Alcotest.(check bool) "same rel, var/const" true
    (Coordination_graph.compatible (atom "R" [ cs "C"; var "x" ])
       (atom "R" [ cs "C"; var "y" ]));
  Alcotest.(check bool) "const clash" false
    (Coordination_graph.compatible (atom "R" [ cs "C"; var "x" ])
       (atom "R" [ cs "G"; var "y" ]));
  Alcotest.(check bool) "different rel" false
    (Coordination_graph.compatible (atom "R" [ var "x" ]) (atom "Q" [ var "x" ]));
  (* The paper's edge test is weaker than MGU existence. *)
  Alcotest.(check bool) "repeated var still compatible" true
    (Coordination_graph.compatible (atom "R" [ var "x"; var "x" ])
       (atom "R" [ ci 1; ci 2 ]))

let test_figure2_graph () =
  let db = Database.create () in
  let queries = Query.rename_set (figure1_queries db) in
  let g = Coordination_graph.build queries in
  (* Figure 2: qC->qG (1 edge), qG->qC (2), qJ->qC and qJ->qG, qW->qC and
     qW->qJ: 7 extended edges total. *)
  Alcotest.(check int) "extended edges" 7 (List.length g.extended);
  let expect_edge a b =
    Alcotest.(check bool)
      (Printf.sprintf "%d->%d" a b)
      true
      (Graphs.Digraph.mem_edge g.graph a b)
  in
  expect_edge 0 1;
  expect_edge 1 0;
  expect_edge 2 0;
  expect_edge 2 1;
  expect_edge 3 0;
  expect_edge 3 2;
  Alcotest.(check int) "collapsed edges" 6 (Graphs.Digraph.edge_count g.graph)

let test_post_targets () =
  let db = Database.create () in
  let queries = Query.rename_set (figure1_queries db) in
  let g = Coordination_graph.build queries in
  Alcotest.(check (list (pair int int))) "qC post 0 -> qG head 0" [ (1, 0) ]
    (Coordination_graph.post_targets g ~src:0 ~post_index:0)

let test_prune_unsatisfiable () =
  (* q0 posts into a head nobody offers; q1 depends on q0; q2 standalone. *)
  let queries =
    Query.rename_set
      [
        Query.make ~name:"a" ~post:[ atom "Z" [ ci 1 ] ] ~head:[ atom "A" [ ci 1 ] ] [];
        Query.make ~name:"b" ~post:[ atom "A" [ ci 1 ] ] ~head:[ atom "B" [ ci 1 ] ] [];
        Query.make ~name:"c" ~post:[] ~head:[ atom "C" [ ci 1 ] ] [];
      ]
  in
  let g = Coordination_graph.build queries in
  let alive = Array.make 3 true in
  Coordination_graph.prune_unsatisfiable g ~alive;
  Alcotest.(check (array bool)) "cascade" [| false; false; true |] alive

(* ----------------------------- Safety ----------------------------- *)

let test_safety_classify () =
  let db = Database.create () in
  let fig1 = Coordination_graph.build (Query.rename_set (figure1_queries db)) in
  Alcotest.(check bool) "figure 1 safe" true (Safety.is_safe fig1);
  Alcotest.(check bool) "figure 1 not unique" false (Safety.is_unique fig1);
  (* Add Gwyneth wanting Chris's flight: two heads R(C, _) exist?  No —
     unsafety needs one post with two candidate heads.  Build that
     directly: two users both offer R(C, _). *)
  let unsafe_set =
    Query.rename_set
      [
        Query.make ~name:"p" ~post:[ atom "R" [ cs "C"; var "x" ] ]
          ~head:[ atom "R" [ cs "P"; var "x" ] ] [];
        Query.make ~name:"c1" ~post:[] ~head:[ atom "R" [ cs "C"; var "y" ] ] [];
        Query.make ~name:"c2" ~post:[] ~head:[ atom "R" [ cs "C"; var "z" ] ] [];
      ]
  in
  let g = Coordination_graph.build unsafe_set in
  Alcotest.(check bool) "unsafe" false (Safety.is_safe g);
  Alcotest.(check (list (pair int int))) "witness" [ (0, 0) ] (Safety.unsafe_posts g);
  Alcotest.(check bool) "query 1 itself safe" true (Safety.is_safe_query g 1);
  Alcotest.(check bool) "classify" true (Safety.classify g = `Unsafe)

let test_uniqueness () =
  (* Mutual coordination: strongly connected, hence unique. *)
  let pairset =
    Query.rename_set
      [
        Query.make ~name:"a" ~post:[ atom "R" [ cs "B"; var "x" ] ]
          ~head:[ atom "R" [ cs "A"; var "x" ] ] [];
        Query.make ~name:"b" ~post:[ atom "R" [ cs "A"; var "y" ] ]
          ~head:[ atom "R" [ cs "B"; var "y" ] ] [];
      ]
  in
  let g = Coordination_graph.build pairset in
  Alcotest.(check bool) "safe" true (Safety.is_safe g);
  Alcotest.(check bool) "unique" true (Safety.is_unique g);
  Alcotest.(check bool) "classify" true (Safety.classify g = `Safe_unique);
  (* A single query with no posts is trivially safe and unique. *)
  let single =
    Query.rename_set [ Query.make ~post:[] ~head:[ atom "R" [ var "x" ] ] [] ]
  in
  Alcotest.(check bool) "singleton unique" true
    (Safety.classify (Coordination_graph.build single) = `Safe_unique)

(* ------------------------- Combine/Ground ------------------------- *)

let test_combine_figure1 () =
  let db = Database.create () in
  let queries = Query.rename_set (figure1_queries db) in
  let g = Coordination_graph.build queries in
  (* Chris + Guy unify; the combined body forces Paris. *)
  (match Combine.unify_set g ~members:[ 0; 1 ] with
  | Error f -> Alcotest.failf "unify failed: %a" (Combine.pp_failure queries) f
  | Ok t -> (
    let body = Combine.combined_body t ~members:[ 0; 1 ] in
    Alcotest.(check bool) "combined body satisfiable" true
      (Eval.satisfiable db body);
    match Ground.valuation db t ~members:[ 0; 1 ] with
    | None -> Alcotest.fail "grounds"
    | Some b ->
      (* Chris's flight equals Guy's flight. *)
      let value v = Eval.Binding.find v b in
      Alcotest.check value_t "same flight" (value "q0.x1") (value "q1.y1")));
  (* Jonny's component {qJ, qC, qG} unifies but cannot ground. *)
  match Combine.unify_set g ~members:[ 0; 1; 2 ] with
  | Error f -> Alcotest.failf "jonny unify: %a" (Combine.pp_failure queries) f
  | Ok t ->
    let body = Combine.combined_body t ~members:[ 0; 1; 2 ] in
    Alcotest.(check bool) "athens+paris unsatisfiable" false
      (Eval.satisfiable db body)

let test_combine_failures () =
  let queries =
    Query.rename_set
      [
        Query.make ~name:"a" ~post:[ atom "R" [ ci 1 ] ] ~head:[ atom "A" [ ci 1 ] ] [];
        Query.make ~name:"b" ~post:[] ~head:[ atom "R" [ ci 2 ] ] [];
      ]
  in
  let g = Coordination_graph.build queries in
  (* R(1) vs head R(2): not even an edge, so unsatisfiable post. *)
  (match Combine.unify_set g ~members:[ 0; 1 ] with
  | Error (Combine.Unsatisfiable_post (0, 0)) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" (Combine.pp_failure queries) f
  | Ok _ -> Alcotest.fail "must fail");
  (* Clash: compatible edge but real unification fails (repeated var). *)
  let clash =
    Query.rename_set
      [
        Query.make ~name:"a" ~post:[ atom "R" [ var "x"; var "x" ] ]
          ~head:[ atom "A" [ ci 1 ] ] [];
        Query.make ~name:"b" ~post:[] ~head:[ atom "R" [ ci 1; ci 2 ] ] [];
      ]
  in
  let g2 = Coordination_graph.build clash in
  match Combine.unify_set g2 ~members:[ 0; 1 ] with
  | Error (Combine.Clash (0, 0)) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" (Combine.pp_failure clash) f
  | Ok _ -> Alcotest.fail "must clash"

let test_ground_free_variable () =
  (* A head variable never mentioned in any body gets a domain value. *)
  let db = flights_db () in
  let queries =
    Query.rename_set
      [ Query.make ~name:"free" ~post:[] ~head:[ atom "R" [ var "u" ] ] [] ]
  in
  let t = Combine.start (Coordination_graph.build queries) in
  match Ground.valuation db t ~members:[ 0 ] with
  | None -> Alcotest.fail "groundable"
  | Some assignment ->
    Alcotest.(check bool) "assigned from domain" true
      (Value.Set.mem
         (Eval.Binding.find "q0.u" assignment)
         (Database.active_domain db))

let test_ground_empty_domain () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "a" ]);
  let queries =
    Query.rename_set
      [ Query.make ~name:"free" ~post:[] ~head:[ atom "R" [ var "u" ] ] [] ]
  in
  let t = Combine.start (Coordination_graph.build queries) in
  Alcotest.(check bool) "no domain value" true
    (Ground.valuation db t ~members:[ 0 ] = None)

(* ---------------------------- Solution ---------------------------- *)

let test_validate_rejects () =
  let db = flights_db () in
  let queries =
    Query.rename_set
      [
        Query.make ~name:"g" ~post:[ atom "R" [ cs "C"; var "x" ] ]
          ~head:[ atom "R" [ cs "G"; var "x" ] ]
          [ atom "F" [ var "x"; cs "Zurich" ] ];
        Query.make ~name:"c" ~post:[] ~head:[ atom "R" [ cs "C"; var "y" ] ]
          [ atom "F" [ var "y"; cs "Zurich" ] ];
      ]
  in
  let binding pairs =
    List.fold_left (fun m (k, v) -> Eval.Binding.add k v m) Eval.Binding.empty pairs
  in
  let good =
    Solution.make ~members:[ 0; 1 ]
      ~assignment:(binding [ ("q0.x", vi 101); ("q1.y", vi 101) ])
  in
  check_validates db queries good;
  (* (1) unassigned variable *)
  let unassigned =
    Solution.make ~members:[ 0; 1 ] ~assignment:(binding [ ("q0.x", vi 101) ])
  in
  Alcotest.(check bool) "unassigned" true
    (Result.is_error (Solution.validate db queries unassigned));
  (* (2) body tuple not in instance *)
  let bad_body =
    Solution.make ~members:[ 0; 1 ]
      ~assignment:(binding [ ("q0.x", vi 999); ("q1.y", vi 999) ])
  in
  Alcotest.(check bool) "body not in db" true
    (Result.is_error (Solution.validate db queries bad_body));
  (* (3) post not among heads: Gwyneth alone. *)
  let lonely =
    Solution.make ~members:[ 0 ] ~assignment:(binding [ ("q0.x", vi 101) ])
  in
  Alcotest.(check bool) "post uncovered" true
    (Result.is_error (Solution.validate db queries lonely));
  (* Chris alone is fine (no posts). *)
  let chris =
    Solution.make ~members:[ 1 ] ~assignment:(binding [ ("q1.y", vi 102) ])
  in
  check_validates db queries chris;
  (* Mismatched flight ids violate (3). *)
  let mismatched =
    Solution.make ~members:[ 0; 1 ]
      ~assignment:(binding [ ("q0.x", vi 101); ("q1.y", vi 102) ])
  in
  Alcotest.(check bool) "mismatch" true
    (Result.is_error (Solution.validate db queries mismatched));
  (* Empty set rejected. *)
  Alcotest.(check bool) "empty" true
    (Result.is_error
       (Solution.validate db queries
          (Solution.make ~members:[] ~assignment:Eval.Binding.empty)))

(* Pretty-printers: smoke tests so display code cannot rot silently. *)
let test_printers () =
  let db = flights_db () in
  let q =
    Query.make ~name:"g" ~post:[ atom "R" [ cs "C"; var "x" ] ]
      ~head:[ atom "R" [ cs "G"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let rendered = Format.asprintf "%a" Query.pp q in
  Alcotest.(check string) "query pp"
    "g: {R(C, x)} R(G, x) :- F(x, Zurich)" rendered;
  let s = Option.get (Subst_oracle.unify_terms Subst_oracle.empty (var "x") (ci 7)) in
  Alcotest.(check string) "subst pp" "{x := 7}" (Format.asprintf "%a" Subst_oracle.pp s);
  let graph = Coordination_graph.build (Query.rename_set [ q ]) in
  Alcotest.(check bool) "graph pp non-empty" true
    (String.length (Format.asprintf "%a" Coordination_graph.pp graph) > 0);
  Alcotest.(check bool) "db pp mentions relations" true
    (String.length (Format.asprintf "%a" Relational.Database.pp db) > 0)

(* ---------------------- Member-local variables -------------------- *)

(* Queries as submitted, not renamed apart: every member may use the
   same variable names, and the unifier tells them apart by member. *)
let online_fire db queries =
  let engine = Coordination.Online.create db in
  let rec go = function
    | [] -> Alcotest.fail "nothing fired"
    | q :: rest -> (
      match Coordination.Online.submit engine q with
      | Coordination.Online.Coordinated c ->
        if rest <> [] then Alcotest.fail "fired before the last arrival";
        c
      | Pending -> go rest
      | Rejected_unsafe _ -> Alcotest.fail "rejected as unsafe")
  in
  go queries

(* One [q<id>.<x>] key per variable of each fired member, pool ids
   counting submissions from 0. *)
let check_keys queries (c : Coordination.Online.coordinated) =
  let expected =
    List.concat
      (List.mapi
         (fun id q -> List.map (Query.prefixed id) (Query.variables q))
         queries)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "one key per member variable" expected
    (List.map fst (Eval.Binding.bindings c.assignment))

let test_shared_names_coordinate () =
  let db = flights_db () in
  let queries =
    [
      Query.make ~name:"a" ~post:[ atom "R" [ cs "B"; var "x" ] ]
        ~head:[ atom "R" [ cs "A"; var "x" ] ]
        [ atom "F" [ var "x"; var "y" ] ];
      Query.make ~name:"b" ~post:[ atom "R" [ cs "A"; var "x" ] ]
        ~head:[ atom "R" [ cs "B"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Paris" ] ];
    ]
  in
  let c = online_fire db queries in
  check_fired ~ctx:"shared names" db c;
  check_keys queries c;
  let value x = Eval.Binding.find x c.assignment in
  Alcotest.check value_t "a's x is b's flight" (vi 200) (value "q0.x");
  Alcotest.check value_t "a's y is its own" (vs "Paris") (value "q0.y")

let test_repeated_variable_clashes () =
  (* Member 1 uses x too, in its body only: it is not member 0's x. *)
  let queries =
    [|
      Query.make ~name:"a" ~post:[ atom "R" [ var "x"; var "x" ] ]
        ~head:[ atom "A" [ var "x" ] ] [];
      Query.make ~name:"b" ~post:[] ~head:[ atom "R" [ ci 1; ci 2 ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
    |]
  in
  let g = Coordination_graph.build queries in
  (match Combine.unify_set g ~members:[ 0; 1 ] with
  | Error (Combine.Clash (0, 0)) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" (Combine.pp_failure queries) f
  | Ok _ -> Alcotest.fail "R(x, x) unified with R(1, 2)");
  let same =
    [|
      queries.(0);
      Query.make ~name:"b" ~post:[] ~head:[ atom "R" [ ci 1; ci 1 ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
    |]
  in
  let db = flights_db () in
  match Combine.unify_set (Coordination_graph.build same) ~members:[ 0; 1 ] with
  | Error f -> Alcotest.failf "R(x, x) vs R(1, 1): %a" (Combine.pp_failure same) f
  | Ok t -> (
    match Ground.valuation db t ~members:[ 0; 1 ] with
    | None -> Alcotest.fail "grounds"
    | Some _ ->
      (* The names collide, so the valuation keeps one [x]: check the
         constant through a renamed copy instead. *)
      let renamed = Query.rename_set (Array.to_list same) in
      match
        Combine.unify_set (Coordination_graph.build renamed) ~members:[ 0; 1 ]
      with
      | Error _ -> Alcotest.fail "renamed copy unifies"
      | Ok t -> (
        match Ground.valuation db t ~members:[ 0; 1 ] with
        | Some v -> Alcotest.check value_t "x = 1" (vi 1) (Eval.Binding.find "q0.x" v)
        | None -> Alcotest.fail "renamed copy grounds"))

let test_cyclic_scc_shared_names () =
  (* A three-member cycle on R whose members all say x and y: x runs
     round the cycle, each y is its own member's destination. *)
  let db = flights_db () in
  let member name post head dest =
    Query.make ~name ~post:[ atom "R" [ cs post; var "x" ] ]
      ~head:[ atom "R" [ cs head; var "x" ] ]
      [ atom "F" [ var "x"; var "y" ]; atom "H" [ var "h"; dest ] ]
  in
  let queries =
    [
      member "a" "B" "A" (var "y");
      member "b" "C" "B" (cs "Paris");
      member "c" "A" "C" (var "y");
    ]
  in
  let c = online_fire db queries in
  check_fired ~ctx:"cycle" db c;
  check_keys queries c;
  Alcotest.(check (list string)) "all three fire" [ "a"; "b"; "c" ]
    (List.map (fun q -> q.Query.name) c.queries);
  let renamed = Query.rename_set queries in
  (match Coordination.Brute.maximum db renamed with
  | Some s -> Alcotest.(check (list int)) "= brute" [ 0; 1; 2 ] s.members
  | None -> Alcotest.fail "brute finds the cycle");
  (* The solver on the graph of the unrenamed queries, naming by id. *)
  let g = Coordination_graph.build (Array.of_list queries) in
  let ids = [| 0; 1; 2 |] in
  match Coordination.Scc_algo.solve_graph ~ids db g with
  | Ok ({ selected = Some c; solution = None; _ } as o) ->
    check_validates db renamed
      (Solution.make ~members:c.covered
         ~assignment:(Coordination.Scc_algo.valuation ~ids o c))
  | _ -> Alcotest.fail "solve_graph fires the cycle"

(* A lone member's body is probed as it is only when the unifier binds
   none of its variables: here the self-loop binds x to the head's
   flight, and the body must be probed with that constant. *)
let test_lone_body_takes_constants () =
  let db = flights_db () in
  let self flight =
    Query.make ~name:"s" ~post:[ atom "R" [ var "x" ] ]
      ~head:[ atom "R" [ ci flight ] ]
      [ atom "F" [ var "x"; cs "Paris" ] ]
  in
  let fires q =
    match Coordination.Scc_algo.solve db [ q ] with
    | Ok { solution = Some s; queries; _ } ->
      check_validates db queries s;
      true
    | Ok { solution = None; _ } -> false
    | Error _ -> Alcotest.fail "safe"
  in
  Alcotest.(check bool) "F(101, Paris) is no flight" false (fires (self 101));
  Alcotest.(check bool) "F(200, Paris) is" true (fires (self 200));
  (* Two body variables the self-loop equates: F(x, x) holds nowhere. *)
  let pair =
    Query.make ~name:"p" ~post:[ atom "R" [ var "x"; var "y" ] ]
      ~head:[ atom "R" [ var "u"; var "u" ] ]
      [ atom "F" [ var "x"; var "y" ] ]
  in
  Alcotest.(check bool) "F(x, x) is no flight" false (fires pair);
  let engine = Coordination.Online.create db in
  Alcotest.(check bool) "online: pending" true
    (Coordination.Online.submit engine (self 101) = Coordination.Online.Pending)

(* The slot unifier against the string one: one postcondition of
   member 0 and one head of member 1, both spelling variables v0..v3.
   Same verdict, and two variables share a class (or a constant) iff
   the renamed ones resolve to the same term. *)
let slot_unifier_agrees (a, b) =
  let q0 = Query.make ~post:[ a ] ~head:[ atom "Z" [] ] []
  and q1 = Query.make ~post:[] ~head:[ b ] [] in
  let g = Coordination_graph.build [| q0; q1 |] in
  let t = Combine.start g in
  let slot_ok =
    Coordination_graph.compatible a b
    && Combine.unify_post t ~src:0 ~post_index:0 ~dst:1 ~head_index:0
  in
  let r0 = Query.rename_apart 0 q0 and r1 = Query.rename_apart 1 q1 in
  match
    Subst_oracle.unify_atoms Subst_oracle.empty (List.hd r0.post)
      (List.hd r1.head)
  with
  | None -> not slot_ok
  | Some s ->
    slot_ok
    &&
    let vars =
      List.concat
        (List.mapi
           (fun m q ->
             List.mapi
               (fun j x ->
                 (Subst_oracle.resolve s (var (Query.prefixed m x)),
                  Combine.find t (Combine.offset t m + j)))
               (Query.variables q))
           [ q0; q1 ])
    in
    let same (_, r) (_, r') =
      r = r'
      ||
      match (Combine.value t r, Combine.value t r') with
      | Some u, Some v -> Value.equal u v
      | _ -> false
    in
    List.for_all
      (fun u ->
        List.for_all
          (fun w -> Term.equal (fst u) (fst w) = same u w)
          vars)
      vars
    && List.for_all
         (fun (term, r) ->
           match (term, Combine.value t r) with
           | Term.Const v, Some u -> Value.equal u v
           | Term.Var _, None -> true
           | _ -> false)
         vars

let suite =
  [
    Alcotest.test_case "printers" `Quick test_printers;
    Alcotest.test_case "unify terms" `Quick test_unify_terms;
    Alcotest.test_case "unify chain" `Quick test_unify_chain;
    Alcotest.test_case "unify atoms" `Quick test_unify_atoms;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "query make" `Quick test_query_make;
    Alcotest.test_case "query rename" `Quick test_query_rename;
    Alcotest.test_case "query well-formed" `Quick test_query_well_formed;
    Alcotest.test_case "parse query" `Quick test_parse_query;
    Alcotest.test_case "parse term conventions" `Quick test_parse_conventions;
    Alcotest.test_case "parse empty body" `Quick test_parse_empty_body;
    Alcotest.test_case "parse program" `Quick test_parse_program;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse comments" `Quick test_parse_comments;
    Alcotest.test_case "query_to_string roundtrip" `Quick test_query_to_string_roundtrip;
    Alcotest.test_case "edge compatibility" `Quick test_compatible;
    Alcotest.test_case "figure 2 graph" `Quick test_figure2_graph;
    Alcotest.test_case "post targets" `Quick test_post_targets;
    Alcotest.test_case "prune unsatisfiable posts" `Quick test_prune_unsatisfiable;
    Alcotest.test_case "safety classify" `Quick test_safety_classify;
    Alcotest.test_case "uniqueness" `Quick test_uniqueness;
    Alcotest.test_case "combine figure 1" `Quick test_combine_figure1;
    Alcotest.test_case "combine failures" `Quick test_combine_failures;
    Alcotest.test_case "ground free variable" `Quick test_ground_free_variable;
    Alcotest.test_case "ground empty domain" `Quick test_ground_empty_domain;
    Alcotest.test_case "validator rejects" `Quick test_validate_rejects;
    Alcotest.test_case "member-local: shared names coordinate" `Quick
      test_shared_names_coordinate;
    Alcotest.test_case "member-local: repeated variable clashes" `Quick
      test_repeated_variable_clashes;
    Alcotest.test_case "member-local: cyclic SCC = brute" `Quick
      test_cyclic_scc_shared_names;
    Alcotest.test_case "member-local: a lone body takes its constants" `Quick
      test_lone_body_takes_constants;
    qtest ~count:400 "slot unifier = string unifier"
      QCheck.(pair atom_arb atom_arb)
      slot_unifier_agrees;
    qtest ~count:400 "MGU makes atoms equal" QCheck.(pair atom_arb atom_arb)
      (fun (a, b) ->
        match Subst_oracle.unify_atoms Subst_oracle.empty a b with
        | None -> true
        | Some s -> Cq.equal_atom (Subst_oracle.apply_atom s a) (Subst_oracle.apply_atom s b));
    qtest ~count:400 "unification is symmetric" QCheck.(pair atom_arb atom_arb)
      (fun (a, b) ->
        Option.is_some (Subst_oracle.unify_atoms Subst_oracle.empty a b)
        = Option.is_some (Subst_oracle.unify_atoms Subst_oracle.empty b a));
    qtest ~count:400 "unifiable implies edge-compatible"
      QCheck.(pair atom_arb atom_arb)
      (fun (a, b) ->
        (not (Option.is_some (Subst_oracle.unify_atoms Subst_oracle.empty a b)))
        || Coordination_graph.compatible a b);
    qtest ~count:300 "parser roundtrip on random queries"
      (let gen_term =
         QCheck.Gen.(
           oneof
             [
               map Term.var (oneofl [ "x"; "y"; "z"; "w1" ]);
               map Term.int (int_range (-5) 99);
               map Term.str (oneofl [ "Zurich"; "Paris"; "t4"; "New York"; "O'Hare" ]);
               return (Term.Const (Relational.Value.bool true));
             ])
       in
       let gen_atom rels =
         QCheck.Gen.(
           let* rel = oneofl rels in
           let* args = list_size (int_range 1 3) gen_term in
           return { Cq.rel; args = Array.of_list args })
       in
       let gen_query =
         QCheck.Gen.(
           let* post = list_size (int_range 0 2) (gen_atom [ "R"; "Q" ]) in
           let* head = list_size (int_range 1 2) (gen_atom [ "R"; "Q" ]) in
           let* body = list_size (int_range 0 3) (gen_atom [ "F"; "H" ]) in
           return (Query.make ~name:"g" ~post ~head body))
       in
       QCheck.make ~print:Parser.query_to_string gen_query)
      (fun q ->
        let q' = Parser.parse_query (Parser.query_to_string q) in
        Query.equal q q');
    qtest ~count:1000 "printer equals the reference printer"
      (let gen_str =
         QCheck.Gen.(
           oneof
             [
               oneofl [ ""; "Zurich"; "t4"; "New York"; "O'Hare"; "a\\b"; "x\ny"; "Z_9" ];
               string_size ~gen:(oneofl [ 'a'; 'Q'; '\''; '\\'; '\n'; ' '; '_'; '7' ])
                 (int_range 0 5);
             ])
       in
       let gen_term =
         QCheck.Gen.(
           oneof
             [
               map Term.var (oneofl [ "x"; "y"; "w1" ]);
               map Term.int (oneof [ int_range (-1000) 1000; oneofl [ min_int; max_int ] ]);
               map (fun b -> Term.Const (Relational.Value.bool b)) bool;
               map Term.str gen_str;
             ])
       in
       let gen_atom =
         QCheck.Gen.(
           let* rel = oneofl [ "R"; "Flights"; "F_2" ] in
           let* args = list_size (int_range 0 3) gen_term in
           return { Cq.rel; args = Array.of_list args })
       in
       QCheck.make ~print:Printer_oracle.query_to_string
         QCheck.Gen.(
           let* name = oneofl [ ""; "g"; "q_1" ] in
           let* post = list_size (int_range 0 2) gen_atom in
           let* head = list_size (int_range 1 2) gen_atom in
           let* body = list_size (int_range 0 3) gen_atom in
           return (Query.make ~name ~post ~head body)))
      (fun q -> Parser.query_to_string q = Printer_oracle.query_to_string q);
    qtest ~count:400 "apply is idempotent" QCheck.(pair atom_arb atom_arb)
      (fun (a, b) ->
        match Subst_oracle.unify_atoms Subst_oracle.empty a b with
        | None -> true
        | Some s ->
          let once = Subst_oracle.apply_atom s a in
          Cq.equal_atom once (Subst_oracle.apply_atom s once));
  ]
