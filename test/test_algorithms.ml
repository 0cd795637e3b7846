(* The coordination algorithms: Gupta baseline, the SCC Coordination
   Algorithm (Section 4), the Consistent Coordination Algorithm
   (Section 5), single-connected sets (Theorem 3), and the brute-force
   ground truth — with cross-checks between them. *)

open Relational
open Entangled
open Helpers
module Cquery = Coordination.Consistent_query

let mk ?name ~post ~head body = Query.make ?name ~post ~head body

(* A safe+unique pair: A and B must share a Zurich flight. *)
let pair_queries () =
  [
    mk ~name:"a"
      ~post:[ atom "R" [ cs "B"; var "x" ] ]
      ~head:[ atom "R" [ cs "A"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ];
    mk ~name:"b"
      ~post:[ atom "R" [ cs "A"; var "y" ] ]
      ~head:[ atom "R" [ cs "B"; var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ];
  ]

(* ------------------------------ Gupta ----------------------------- *)

let test_gupta_success () =
  let db = flights_db () in
  match Coordination.Gupta.solve db (pair_queries ()) with
  | Error _ -> Alcotest.fail "safe+unique"
  | Ok outcome -> (
    match outcome.solution with
    | None -> Alcotest.fail "coordinating set exists"
    | Some s ->
      Alcotest.(check int) "both queries" 2 (Solution.size s);
      check_validates db outcome.queries s;
      Alcotest.(check int) "single probe" 1 outcome.stats.db_probes)

let test_gupta_no_flight () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Database.insert db "F" [ vi 1; vs "Paris" ];
  match Coordination.Gupta.solve db (pair_queries ()) with
  | Error _ -> Alcotest.fail "still safe+unique"
  | Ok outcome -> Alcotest.(check bool) "no solution" true (outcome.solution = None)

let test_gupta_rejects_non_unique () =
  let db = flights_db () in
  let queries =
    [
      mk ~name:"g"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "G"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      mk ~name:"c" ~post:[] ~head:[ atom "R" [ cs "C"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Zurich" ] ];
    ]
  in
  match Coordination.Gupta.solve db queries with
  | Error Coordination.Gupta.Not_unique -> ()
  | _ -> Alcotest.fail "must reject non-unique sets"

let test_gupta_rejects_unsafe () =
  let db = flights_db () in
  let queries =
    [
      mk ~name:"p"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "P"; var "x" ] ]
        [ atom "F" [ var "x"; var "d" ] ];
      mk ~name:"c1" ~post:[ atom "R" [ cs "P"; var "u" ] ]
        ~head:[ atom "R" [ cs "C"; var "u" ] ]
        [ atom "F" [ var "u"; var "d1" ] ];
      mk ~name:"c2" ~post:[ atom "R" [ cs "P"; var "v" ] ]
        ~head:[ atom "R" [ cs "C"; var "v" ] ]
        [ atom "F" [ var "v"; var "d2" ] ];
    ]
  in
  match Coordination.Gupta.solve db queries with
  | Error (Coordination.Gupta.Not_safe _) -> ()
  | _ -> Alcotest.fail "must reject unsafe sets"

let test_gupta_empty () =
  let db = flights_db () in
  match Coordination.Gupta.solve db [] with
  | Ok outcome -> Alcotest.(check bool) "no solution" true (outcome.solution = None)
  | Error _ -> Alcotest.fail "empty input is fine"

(* ---------------------------- SCC algo ---------------------------- *)

let test_scc_figure1 () =
  let db = Database.create () in
  let input = figure1_queries db in
  match Coordination.Scc_algo.solve db input with
  | Error _ -> Alcotest.fail "figure 1 is safe"
  | Ok outcome -> (
    match outcome.solution with
    | None -> Alcotest.fail "chris+guy coordinate"
    | Some s ->
      Alcotest.(check (list string)) "chris and guy" [ "qC"; "qG" ]
        (Solution.member_names outcome.queries s);
      check_validates db outcome.queries s;
      (* Only the {qC,qG} candidate grounds; qJ and qW components fail. *)
      Alcotest.(check int) "one successful candidate" 1
        (List.length outcome.candidates))

let test_scc_on_safe_unique_matches_gupta () =
  let db = flights_db () in
  let input = pair_queries () in
  match (Coordination.Gupta.solve db input, Coordination.Scc_algo.solve db input) with
  | Ok g, Ok s -> (
    match (g.solution, s.solution) with
    | Some gs, Some ss ->
      Alcotest.(check (list int)) "same members" gs.members ss.members
    | _ -> Alcotest.fail "both must solve")
  | _ -> Alcotest.fail "both must accept"

let test_scc_chain_suffixes () =
  (* A 5-chain where query 2's body is unsatisfiable: only suffixes
     {3,4} and {4} survive; the algorithm picks {3,4}. *)
  let db = flights_db () in
  let dest i = if i = 2 then "Nowhere" else "Zurich" in
  let input =
    List.init 5 (fun i ->
        let post =
          if i < 4 then
            [ atom "R" [ cs (Printf.sprintf "u%d" (i + 1)); var "y" ] ]
          else []
        in
        mk
          ~name:(Printf.sprintf "u%d" i)
          ~post
          ~head:[ atom "R" [ cs (Printf.sprintf "u%d" i); var "x" ] ]
          [ atom "F" [ var "x"; cs (dest i) ] ])
  in
  match Coordination.Scc_algo.solve db input with
  | Error _ -> Alcotest.fail "safe"
  | Ok outcome -> (
    Alcotest.(check int) "two candidates" 2 (List.length outcome.candidates);
    match outcome.solution with
    | Some s ->
      Alcotest.(check (list string)) "largest suffix" [ "u3"; "u4" ]
        (Solution.member_names outcome.queries s);
      check_validates db outcome.queries s
    | None -> Alcotest.fail "suffix coordinates")

let test_scc_preprocess_equivalent () =
  (* With or without preprocessing, same solution; preprocessing never
     issues more probes. *)
  let db = flights_db () in
  let input =
    [
      mk ~name:"dead"
        ~post:[ atom "Z" [ ci 1 ] ]
        ~head:[ atom "R" [ cs "D"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      mk ~name:"alive" ~post:[] ~head:[ atom "R" [ cs "A"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Paris" ] ];
    ]
  in
  let run preprocess =
    match Coordination.Scc_algo.solve ~preprocess db input with
    | Ok o -> o
    | Error _ -> Alcotest.fail "safe"
  in
  let with_pre = run true and without_pre = run false in
  (match (with_pre.solution, without_pre.solution) with
  | Some a, Some b -> Alcotest.(check (list int)) "same members" a.members b.members
  | _ -> Alcotest.fail "both solve");
  Alcotest.(check bool) "preprocessing saves probes" true
    (with_pre.stats.db_probes <= without_pre.stats.db_probes)

let test_scc_selection () =
  let db = flights_db () in
  (* Two independent queries; Largest picks either (size 1), a Preferred
     criterion can force the Paris one. *)
  let input =
    [
      mk ~name:"zurich" ~post:[] ~head:[ atom "R" [ cs "A"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      mk ~name:"paris" ~post:[] ~head:[ atom "R" [ cs "B"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Paris" ] ];
    ]
  in
  let prefer_paris queries (c : Coordination.Scc_algo.candidate) =
    if List.exists (fun i -> queries.(i).Query.name = "paris") c.covered then 1
    else 0
  in
  match
    Coordination.Scc_algo.solve ~selection:(Preferred prefer_paris) db input
  with
  | Ok { solution = Some s; queries; _ } ->
    Alcotest.(check (list string)) "paris preferred" [ "paris" ]
      (Solution.member_names queries s)
  | _ -> Alcotest.fail "solves"

let test_scc_unsafe_rejected () =
  let db = flights_db () in
  let input =
    [
      mk ~name:"p"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "P"; var "x" ] ]
        [ atom "F" [ var "x"; var "d" ] ];
      mk ~name:"c1" ~post:[] ~head:[ atom "R" [ cs "C"; var "u" ] ]
        [ atom "F" [ var "u"; var "d1" ] ];
      mk ~name:"c2" ~post:[] ~head:[ atom "R" [ cs "C"; var "v" ] ]
        [ atom "F" [ var "v"; var "d2" ] ];
    ]
  in
  match Coordination.Scc_algo.solve db input with
  | Error (Coordination.Scc_algo.Not_safe ws) ->
    Alcotest.(check (list (pair int int))) "witness" [ (0, 0) ] ws
  | Ok _ -> Alcotest.fail "unsafe must be rejected"

let test_scc_unsafe_dead_candidate_ok () =
  (* A second candidate head exists only on a query with an unsatisfiable
     postcondition; preprocessing removes it, making the set safe. *)
  let db = flights_db () in
  let input =
    [
      mk ~name:"p"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "P"; var "x" ] ]
        [ atom "F" [ var "x"; var "d" ] ];
      mk ~name:"real" ~post:[] ~head:[ atom "R" [ cs "C"; var "u" ] ]
        [ atom "F" [ var "u"; var "d1" ] ];
      mk ~name:"ghost"
        ~post:[ atom "Never" [ ci 1 ] ]
        ~head:[ atom "R" [ cs "C"; var "v" ] ]
        [ atom "F" [ var "v"; var "d2" ] ];
    ]
  in
  match Coordination.Scc_algo.solve db input with
  | Ok { solution = Some s; queries; _ } ->
    Alcotest.(check (list string)) "p + real" [ "p"; "real" ]
      (Solution.member_names queries s)
  | Ok { solution = None; _ } -> Alcotest.fail "solution exists"
  | Error _ -> Alcotest.fail "pruning restores safety"

(* ----------------------- Consistent algorithm --------------------- *)

let test_movies_example () =
  let db, queries = Workload.Movies.make () in
  match Coordination.Consistent.solve db Workload.Movies.config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    (* Paper's option lists. *)
    let cinemas i =
      List.map (fun t -> Value.to_string t.(0)) (Tuple.Set.elements outcome.options.(i))
    in
    Alcotest.(check (list string)) "V(qc)" [ "Regal" ] (cinemas 0);
    Alcotest.(check (list string)) "V(qg)" [ "AMC" ] (cinemas 1);
    Alcotest.(check (list string)) "V(qj)" [ "AMC"; "Cinemark"; "Regal" ] (cinemas 2);
    Alcotest.(check (list string)) "V(qw)" [ "AMC"; "Cinemark"; "Regal" ] (cinemas 3);
    (* Paper: Cinemark cleans to empty, Regal keeps {Chris, Jonny, Will}. *)
    let size_at name =
      List.assoc (Tuple.make [ vs name ]) outcome.candidates
    in
    Alcotest.(check int) "Cinemark empty" 0 (size_at "Cinemark");
    Alcotest.(check int) "Regal three" 3 (size_at "Regal");
    Alcotest.(check int) "AMC three" 3 (size_at "AMC");
    Alcotest.(check int) "solution size" 3 (List.length outcome.members);
    (* Cross-validate in the general formalism. *)
    (match Coordination.Consistent.to_solution db outcome with
    | None -> Alcotest.fail "has solution"
    | Some (compiled, solution) -> check_validates db compiled solution)

let test_consistent_regal_members () =
  (* Pin the choice to Regal by removing AMC's Hugo screening: then the
     only size-3 value is Regal with exactly Chris, Jonny, Will. *)
  let db, queries = Workload.Movies.make () in
  let m = Database.relation db "M" in
  ignore m;
  (* Rebuild without the AMC Hugo row. *)
  let db2 = Database.create () in
  let m2 = Database.create_table db2 Workload.Movies.movies_schema in
  List.iter
    (fun (id, cinema, movie) ->
      ignore
        (Relation.insert m2 [| vi id; vs cinema; vs movie |]))
    [
      (1, "Regal", "Contagion");
      (2, "Regal", "Hugo");
      (3, "AMC", "Project X");
      (5, "Cinemark", "Hugo");
    ];
  let c2 = Database.create_table' db2 "C" [ "user"; "friend" ] in
  Relation.iter (fun t -> ignore (Relation.insert c2 t)) (Database.relation db "C");
  match Coordination.Consistent.solve db2 Workload.Movies.config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    (match outcome.chosen_value with
    | Some v -> Alcotest.check value_t "regal chosen" (vs "Regal") v.(0)
    | None -> Alcotest.fail "solution exists");
    let members =
      List.map
        (fun i -> Value.to_string outcome.queries.(i).Cquery.user)
        outcome.members
    in
    Alcotest.(check (list string)) "chris jonny will" [ "Chris"; "Jonny"; "Will" ]
      members

let test_consistent_duplicate_user () =
  let db, queries = Workload.Movies.make () in
  match
    Coordination.Consistent.solve db Workload.Movies.config
      (queries @ [ List.hd queries ])
  with
  | Error (Coordination.Consistent.Duplicate_user u) ->
    Alcotest.check value_t "chris twice" Workload.Movies.chris u
  | _ -> Alcotest.fail "duplicate user rejected"

let test_consistent_missing_relation () =
  let db = Database.create () in
  let _, queries = Workload.Movies.make () in
  match Coordination.Consistent.solve db Workload.Movies.config queries with
  | Error (Coordination.Consistent.Missing_relation "M") -> ()
  | _ -> Alcotest.fail "missing relation reported"

let test_consistent_no_solution () =
  (* Nobody's movie plays anywhere: empty option lists, no solution. *)
  let db = Database.create () in
  ignore (Database.create_table db Workload.Movies.movies_schema);
  ignore (Database.create_table' db "C" [ "user"; "friend" ]);
  let _, queries = Workload.Movies.make () in
  match Coordination.Consistent.solve db Workload.Movies.config queries with
  | Ok outcome ->
    Alcotest.(check bool) "no value" true (outcome.chosen_value = None);
    Alcotest.(check (list int)) "no members" [] outcome.members
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e

let test_consistent_first_selection () =
  let db, queries = Workload.Movies.make () in
  match
    Coordination.Consistent.solve ~selection:`First db Workload.Movies.config queries
  with
  | Ok outcome ->
    Alcotest.(check bool) "found something" true (outcome.chosen_value <> None);
    (* `First stops early: fewer candidates examined than values exist. *)
    Alcotest.(check bool) "stopped early" true
      (List.length outcome.candidates <= 3)
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e

let test_consistent_named_partner_chain () =
  (* Chris named Will; remove Will's query: Chris must be cleaned away
     even where his own movie plays. *)
  let db, queries = Workload.Movies.make () in
  let queries' = List.filteri (fun i _ -> i <> 3) queries in
  match Coordination.Consistent.solve db Workload.Movies.config queries' with
  | Ok outcome ->
    let members =
      List.map
        (fun i -> Value.to_string outcome.queries.(i).Cquery.user)
        outcome.members
    in
    Alcotest.(check bool) "chris excluded" true
      (not (List.mem "Chris" members))
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e

let test_consistent_queries_are_consistent () =
  let _, queries = Workload.Movies.make () in
  List.iter
    (fun q ->
      Alcotest.(check bool) "Definition 9" true
        (Cquery.is_consistent Workload.Movies.config q))
    queries

let test_definitions_7_8_9 () =
  let config = Workload.Movies.config in
  (* A raw query that coordinates on nothing is not A-consistent. *)
  let raw =
    Cquery.make_raw config ~user:(vs "U")
      ~own:[ Cquery.Any; Cquery.Any ]
      ~partners:[ (Cquery.Any_friend, [ Cquery.Free; Cquery.Free ]) ]
  in
  Alcotest.(check bool) "not coordinating on cinema" false
    (Cquery.is_coordinating config ~attrs:[ 0 ] raw);
  Alcotest.(check bool) "non-coordinating on cinema" true
    (Cquery.is_non_coordinating config ~attrs:[ 0 ] raw);
  Alcotest.(check bool) "not consistent" false (Cquery.is_consistent config raw);
  (* Fixed equal to own Exact counts as coordinating (same constant). *)
  let fixed =
    Cquery.make_raw config ~user:(vs "U")
      ~own:[ Cquery.Exact (vs "Regal"); Cquery.Any ]
      ~partners:[ (Cquery.Any_friend, [ Cquery.Fixed (vs "Regal"); Cquery.Free ]) ]
  in
  Alcotest.(check bool) "fixed = exact coordinates" true
    (Cquery.is_coordinating config ~attrs:[ 0 ] fixed);
  Alcotest.(check bool) "consistent" true (Cquery.is_consistent config fixed)

let test_compiled_form_shape () =
  (* The compiled general query has the Section 5 shape. *)
  let config = Workload.Movies.config in
  let q =
    Cquery.make config ~user:(vs "U")
      ~own:[ Cquery.Any; Cquery.Exact (vs "Hugo") ]
      ~partners:[ Cquery.Any_friend; Cquery.Named (vs "W") ]
  in
  let e = Cquery.to_entangled config q in
  Alcotest.(check int) "two posts" 2 (List.length e.Query.post);
  Alcotest.(check int) "one head" 1 (List.length e.Query.head);
  (* body: own M atom + friend atom + 2 partner M atoms *)
  Alcotest.(check int) "body atoms" 4 (List.length e.Query.body.Cq.atoms);
  Alcotest.(check bool) "range restricted" true (Query.range_restricted e)

(* -------------------------- Brute force --------------------------- *)

let test_brute_matches_paper_pair () =
  let db = flights_db () in
  let queries = Query.rename_set (pair_queries ()) in
  Alcotest.(check bool) "exists" true
    (Coordination.Brute.exists_coordinating_set db queries);
  match Coordination.Brute.maximum db queries with
  | Some s ->
    Alcotest.(check int) "both" 2 (Solution.size s);
    check_validates db queries s
  | None -> Alcotest.fail "exists"

let test_brute_subsets () =
  let db = flights_db () in
  let queries =
    Query.rename_set
      [
        mk ~name:"g"
          ~post:[ atom "R" [ cs "C"; var "x" ] ]
          ~head:[ atom "R" [ cs "G"; var "x" ] ]
          [ atom "F" [ var "x"; cs "Zurich" ] ];
        mk ~name:"c" ~post:[] ~head:[ atom "R" [ cs "C"; var "y" ] ]
          [ atom "F" [ var "y"; cs "Zurich" ] ];
      ]
  in
  let subsets = Coordination.Brute.all_coordinating_subsets db queries in
  Alcotest.(check (list (list int))) "chris alone, or both" [ [ 1 ]; [ 0; 1 ] ]
    subsets

let test_brute_guard () =
  let db = flights_db () in
  let many =
    Query.rename_set
      (List.init 21 (fun i ->
           mk ~name:(Printf.sprintf "q%d" i) ~post:[]
             ~head:[ atom "R" [ ci i ] ] []))
  in
  let raised =
    try
      ignore (Coordination.Brute.exists_coordinating_set db many);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "guarded" true raised

(* SCC algorithm's solution is always among brute force's subsets, and
   brute force finds something iff the SCC algorithm does (on safe sets
   where every query's posts are satisfiable within the whole set). *)
let random_safe_instance seed =
  (* Random chain/forest-shaped safe sets over the flights db. *)
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 5 in
  let dests = [ "Zurich"; "Paris"; "Athens"; "Nowhere" ] in
  let input =
    List.init n (fun i ->
        let post =
          if i < n - 1 && Prng.bool rng then
            [ atom "R" [ cs (Printf.sprintf "u%d" (i + 1)); var "y" ] ]
          else []
        in
        mk
          ~name:(Printf.sprintf "u%d" i)
          ~post
          ~head:[ atom "R" [ cs (Printf.sprintf "u%d" i); var "x" ] ]
          [ atom "F" [ var "x"; cs (Prng.pick rng dests) ] ])
  in
  input

(* Arbitrary random safe instances, cycles included: every post names a
   specific user and every user offers one head, so any digraph of
   "wants" is safe.  Posts share the owner's flight variable half the
   time, which makes unification propagate constraints through cycles. *)
let random_cyclic_instance seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 4 in
  let dests = [ "Zurich"; "Paris"; "Athens"; "Nowhere" ] in
  List.init n (fun i ->
      let targets =
        List.filter
          (fun j -> j <> i && Prng.float rng < 0.4)
          (List.init n Fun.id)
      in
      let post =
        List.mapi
          (fun k j ->
            let term =
              if Prng.bool rng then var "x" (* same flight as mine *)
              else var (Printf.sprintf "y%d" k)
            in
            atom "R" [ cs (Printf.sprintf "u%d" j); term ])
          targets
      in
      mk
        ~name:(Printf.sprintf "u%d" i)
        ~post
        ~head:[ atom "R" [ cs (Printf.sprintf "u%d" i); var "x" ] ]
        [ atom "F" [ var "x"; cs (Prng.pick rng dests) ] ])

let suite =
  [
    Alcotest.test_case "gupta success" `Quick test_gupta_success;
    Alcotest.test_case "gupta no flight" `Quick test_gupta_no_flight;
    Alcotest.test_case "gupta rejects non-unique" `Quick test_gupta_rejects_non_unique;
    Alcotest.test_case "gupta rejects unsafe" `Quick test_gupta_rejects_unsafe;
    Alcotest.test_case "gupta empty input" `Quick test_gupta_empty;
    Alcotest.test_case "scc: figure 1" `Quick test_scc_figure1;
    Alcotest.test_case "scc = gupta on safe+unique" `Quick
      test_scc_on_safe_unique_matches_gupta;
    Alcotest.test_case "scc: chain suffixes" `Quick test_scc_chain_suffixes;
    Alcotest.test_case "scc: preprocessing equivalent" `Quick
      test_scc_preprocess_equivalent;
    Alcotest.test_case "scc: custom selection" `Quick test_scc_selection;
    Alcotest.test_case "scc: unsafe rejected" `Quick test_scc_unsafe_rejected;
    Alcotest.test_case "scc: pruning restores safety" `Quick
      test_scc_unsafe_dead_candidate_ok;
    Alcotest.test_case "explain trace on figure 1" `Quick (fun () ->
        let db = Database.create () in
        let input = figure1_queries db in
        match Coordination.Explain.trace db input with
        | Error _ -> Alcotest.fail "figure 1 is safe"
        | Ok report ->
          let kinds =
            List.map
              (function
                | Coordination.Scc_algo.Pruned _ -> "pruned"
                | Coordination.Scc_algo.Skipped _ -> "skipped"
                | Coordination.Scc_algo.Unify_failed _ -> "unify-failed"
                | Coordination.Scc_algo.Probed { witness = Some _; _ } -> "sat"
                | Coordination.Scc_algo.Probed { witness = None; _ } -> "unsat")
              report.events
          in
          (* {qC,qG} grounds; {qJ,...} probes and fails; {qW,...} is
             skipped because qJ failed. *)
          Alcotest.(check (list string)) "event sequence"
            [ "sat"; "unsat"; "skipped" ] kinds;
          (* The report renders (including SQL) without raising. *)
          let rendered =
            Format.asprintf "%a" (Coordination.Explain.pp db) report
          in
          Alcotest.(check bool) "mentions SELECT" true (contains rendered "SELECT");
          Alcotest.(check bool) "mentions the solution" true
            (contains rendered "qC, qG"));
    Alcotest.test_case "consistent: movies example (Section 5)" `Quick
      test_movies_example;
    Alcotest.test_case "consistent: regal members" `Quick
      test_consistent_regal_members;
    Alcotest.test_case "consistent: duplicate user" `Quick
      test_consistent_duplicate_user;
    Alcotest.test_case "consistent: missing relation" `Quick
      test_consistent_missing_relation;
    Alcotest.test_case "consistent: no solution" `Quick test_consistent_no_solution;
    Alcotest.test_case "consistent: first selection" `Quick
      test_consistent_first_selection;
    Alcotest.test_case "consistent: named partner chain" `Quick
      test_consistent_named_partner_chain;
    Alcotest.test_case "consistent: queries satisfy Definition 9" `Quick
      test_consistent_queries_are_consistent;
    Alcotest.test_case "definitions 7/8/9" `Quick test_definitions_7_8_9;
    Alcotest.test_case "compiled form shape" `Quick test_compiled_form_shape;
    Alcotest.test_case "brute: pair" `Quick test_brute_matches_paper_pair;
    Alcotest.test_case "brute: all subsets" `Quick test_brute_subsets;
    Alcotest.test_case "brute: size guard" `Quick test_brute_guard;
    qtest ~count:60 "scc solution is a brute-force coordinating subset"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let db = flights_db () in
        let input = random_safe_instance seed in
        match Coordination.Scc_algo.solve db input with
        | Error _ -> false
        | Ok outcome -> (
          let queries = outcome.queries in
          match outcome.solution with
          | None ->
            (* Brute force must agree that nothing coordinates. *)
            not (Coordination.Brute.exists_coordinating_set db queries)
          | Some s ->
            Solution.validate db queries s = Ok ()
            && List.mem s.members
                 (Coordination.Brute.all_coordinating_subsets db queries)));
    qtest ~count:150 "scc agrees with brute force on cyclic safe instances"
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let db = flights_db () in
        let input = random_cyclic_instance seed in
        match Coordination.Scc_algo.solve db input with
        | Error _ -> false (* these instances are safe by construction *)
        | Ok outcome -> (
          let queries = outcome.queries in
          match outcome.solution with
          | None -> not (Coordination.Brute.exists_coordinating_set db queries)
          | Some s ->
            Solution.validate db queries s = Ok ()
            && List.mem s.members
                 (Coordination.Brute.all_coordinating_subsets db queries)));
    qtest ~count:60 "scc solutions always validate (scale-free workloads)"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let db, input, _ = Workload.Netgen.make ~rows:500 ~topics:5 ~seed 12 in
        match Coordination.Scc_algo.solve db input with
        | Error _ -> false
        | Ok outcome -> (
          match outcome.solution with
          | None -> true
          | Some s -> Solution.validate db outcome.queries s = Ok ()));
    qtest ~count:40 "consistent solutions validate via compilation"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Prng.create seed in
        let rows = 5 + Prng.int rng 10 in
        let users = 2 + Prng.int rng 5 in
        let db = Database.create () in
        ignore (Workload.Flights.install_flights db ~rows);
        ignore (Workload.Flights.install_complete_friends db ~users);
        let queries =
          Workload.Flights.constrained_queries rng ~users ~rows
            ~constrain_fraction:0.5
        in
        match Coordination.Consistent.solve db Workload.Flights.config queries with
        | Error _ -> false
        | Ok outcome -> (
          match Coordination.Consistent.to_solution db outcome with
          | None -> outcome.members = []
          | Some (compiled, solution) ->
            Solution.validate db compiled solution = Ok ()));
  ]
