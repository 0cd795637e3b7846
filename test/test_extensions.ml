(* Extensions beyond the paper's core algorithms: the online engine
   (Section 7 future work / Section 6.1 system flow), the generalized
   partner kinds of Section 5, and SQL rendering of combined queries. *)

open Relational
open Entangled
open Helpers
module Cquery = Coordination.Consistent_query

(* ------------------------------ Online ---------------------------- *)

let test_online_pair () =
  let db = flights_db () in
  let engine = Coordination.Online.create db in
  (* Gwyneth needs Chris; alone she pends. *)
  let gwyneth =
    Query.make ~name:"gwyneth"
      ~post:[ atom "R" [ cs "Chris"; var "x" ] ]
      ~head:[ atom "R" [ cs "Gwyneth"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let chris = rq "chris" ~post:[] ~head:"Chris" in
  (match Coordination.Online.submit engine gwyneth with
  | Pending -> ()
  | _ -> Alcotest.fail "gwyneth must pend");
  Alcotest.(check int) "one pending" 1 (Coordination.Online.pending_count engine);
  (match Coordination.Online.submit engine chris with
  | Coordinated c ->
    Alcotest.(check (list string)) "both leave" [ "gwyneth"; "chris" ]
      (List.map (fun q -> q.Query.name) c.queries)
  | _ -> Alcotest.fail "chris triggers coordination");
  Alcotest.(check int) "pool empty" 0 (Coordination.Online.pending_count engine);
  Alcotest.(check int) "two satisfied" 2
    (Coordination.Online.total_coordinated engine)

let test_online_unrelated_component_untouched () =
  let db = flights_db () in
  let engine = Coordination.Online.create db in
  (* A pending query with an unsatisfiable body... *)
  let stuck =
    Query.make ~name:"stuck"
      ~post:[ atom "R" [ cs "nobody"; var "z" ] ]
      ~head:[ atom "R" [ cs "stuck"; var "z" ] ]
      [ atom "F" [ var "z"; cs "Nowhere" ] ]
  in
  ignore (Coordination.Online.submit engine stuck);
  (* ...does not block an unrelated self-sufficient query. *)
  let solo = rq ~dest:"Paris" "solo" ~post:[] ~head:"solo" in
  (match Coordination.Online.submit engine solo with
  | Coordinated c ->
    Alcotest.(check (list string)) "solo fires" [ "solo" ]
      (List.map (fun q -> q.Query.name) c.queries)
  | _ -> Alcotest.fail "solo coordinates alone");
  Alcotest.(check (list string)) "stuck remains" [ "stuck" ]
    (List.map (fun q -> q.Query.name) (Coordination.Online.pending engine))

let test_online_rejects_unsafe () =
  let db = flights_db () in
  let engine = Coordination.Online.create db in
  let provider name = rq ~dest:"Nowhere" name ~post:[] ~head:"C" in
  ignore (Coordination.Online.submit engine (provider "c1"));
  ignore (Coordination.Online.submit engine (provider "c2"));
  let wanter =
    Query.make ~name:"p"
      ~post:[ atom "R" [ cs "C"; var "x" ] ]
      ~head:[ atom "R" [ cs "P"; var "x" ] ]
      [ atom "F" [ var "x"; var "d" ] ]
  in
  (match Coordination.Online.submit engine wanter with
  | Rejected_unsafe _ -> ()
  | _ -> Alcotest.fail "two candidate heads: unsafe, must reject");
  (* The rejected query was not admitted. *)
  Alcotest.(check int) "pool unchanged" 2
    (Coordination.Online.pending_count engine)

let test_online_stream_matches_batch_components () =
  (* Streaming the chain front-to-back: nothing fires until the last
     (post-free) query arrives, then the whole chain fires at once. *)
  let db = flights_db () in
  let engine = Coordination.Online.create db in
  let n = 5 in
  let queries = List.init n (fun i -> chain_query i ~last:(i = n - 1)) in
  List.iteri
    (fun i q ->
      match Coordination.Online.submit engine q with
      | Pending when i < n - 1 -> ()
      | Coordinated c when i = n - 1 ->
        Alcotest.(check int) "whole chain at the end" n (List.length c.queries)
      | _ -> Alcotest.failf "unexpected outcome at %d" i)
    queries

let test_online_flush_multiple_components () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  let engine = Coordination.Online.create db in
  (* Two independent pairs plus one doomed query, all pending until F
     holds their flights. *)
  let pair tag dest =
    [
      Query.make
        ~name:(tag ^ "_a")
        ~post:[ atom "R" [ cs (tag ^ "B"); var "x" ] ]
        ~head:[ atom "R" [ cs (tag ^ "A"); var "x" ] ]
        [ atom "F" [ var "x"; cs dest ] ];
      Query.make
        ~name:(tag ^ "_b")
        ~post:[ atom "R" [ cs (tag ^ "A"); var "y" ] ]
        ~head:[ atom "R" [ cs (tag ^ "B"); var "y" ] ]
        [ atom "F" [ var "y"; cs dest ] ];
    ]
  in
  let doomed =
    Query.make ~name:"doomed"
      ~post:[ atom "R" [ cs "nobody"; var "z" ] ]
      ~head:[ atom "R" [ cs "doomed"; var "z" ] ]
      [ atom "F" [ var "z"; cs "Zurich" ] ]
  in
  List.iter
    (fun q ->
      Alcotest.(check string) "pending" "pending"
        (submission_repr (Coordination.Online.submit engine q)))
    (pair "p" "Zurich" @ [ doomed ] @ pair "q" "Paris");
  Database.insert db "F" [ vi 101; vs "Zurich" ];
  Database.insert db "F" [ vi 200; vs "Paris" ];
  let fired = Coordination.Online.flush engine in
  Alcotest.(check int) "two sets fire" 2 (List.length fired);
  Alcotest.(check (list string)) "doomed remains" [ "doomed" ]
    (List.map
       (fun q -> q.Query.name)
       (Coordination.Online.pending engine));
  (* Flushing again is a no-op. *)
  Alcotest.(check int) "idempotent" 0
    (List.length (Coordination.Online.flush engine))

let test_deep_chain_stack_safety () =
  (* Graph construction, Tarjan and the condensation must be stack-safe
     on a 2000-deep chain (iterative Tarjan; Figure 6's regime)... *)
  let db, queries = Workload.Listgen.make ~rows:2_000 ~topics:5 ~seed:9 2_000 in
  (match Coordination.Scc_algo.solve ~graph_only:true db queries with
  | Error _ -> Alcotest.fail "safe"
  | Ok outcome ->
    Alcotest.(check int) "no probes in graph phase" 0 outcome.stats.db_probes);
  (* ...and a full solve (including the evaluator's recursion over a
     400-atom combined query) completes at depth 400. *)
  let db, queries = Workload.Listgen.make ~rows:2_000 ~topics:5 ~seed:9 400 in
  match Coordination.Scc_algo.solve db queries with
  | Error _ -> Alcotest.fail "safe"
  | Ok outcome -> (
    Alcotest.(check int) "all suffixes probed" 400 outcome.stats.db_probes;
    match outcome.solution with
    | Some s -> Alcotest.(check int) "full chain" 400 (Entangled.Solution.size s)
    | None -> Alcotest.fail "chain coordinates")

let test_online_consumes_inventory () =
  (* One Zurich flight only; the first pair books it, the second pair
     finds it gone. *)
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Database.insert db "F" [ vi 101; vs "Zurich" ];
  let engine = Coordination.Online.create ~consume:true db in
  let pair tag =
    [
      Query.make
        ~name:(tag ^ "_a")
        ~post:[ atom "R" [ cs (tag ^ "B"); var "x" ] ]
        ~head:[ atom "R" [ cs (tag ^ "A"); var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      Query.make
        ~name:(tag ^ "_b")
        ~post:[ atom "R" [ cs (tag ^ "A"); var "y" ] ]
        ~head:[ atom "R" [ cs (tag ^ "B"); var "y" ] ]
        [ atom "F" [ var "y"; cs "Zurich" ] ];
    ]
  in
  (match List.map (Coordination.Online.submit engine) (pair "p") with
  | [ Pending; Coordinated c ] ->
    Alcotest.(check int) "first pair books" 2 (List.length c.queries)
  | _ -> Alcotest.fail "first pair fires on second submit");
  Alcotest.(check int) "flight consumed" 0
    (Relation.cardinal (Database.relation db "F"));
  (match List.map (Coordination.Online.submit engine) (pair "q") with
  | [ Pending; Pending ] -> ()
  | _ -> Alcotest.fail "second pair must find no inventory");
  Alcotest.(check int) "second pair stuck" 2
    (Coordination.Online.pending_count engine)

(* --------------------- Generalized partners ----------------------- *)

let movies_config = Workload.Movies.config

let test_k_friends () =
  let db, _ = Workload.Movies.make () in
  (* Jonny insists on TWO friends at the same cinema. *)
  let q user movie k =
    Cquery.make movies_config ~user
      ~own:[ Cquery.Any; Cquery.Exact (vs movie) ]
      ~partners:[ Cquery.K_friends k ]
  in
  let queries =
    [
      q Workload.Movies.chris "Hugo" 1;
      q Workload.Movies.jonny "Hugo" 2;
      q Workload.Movies.will "Hugo" 1;
    ]
  in
  (* Jonny's friends are Chris and Will; both watch Hugo, so all three
     coordinate (Hugo plays at Regal, AMC, Cinemark together only via
     per-cinema availability: all three share Regal/AMC/Cinemark options
     -> everyone survives everywhere Hugo plays). *)
  match Coordination.Consistent.solve db movies_config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    Alcotest.(check int) "all three" 3 (List.length outcome.members);
    (* K_friends is not expressible as an entangled query. *)
    Alcotest.(check bool) "not expressible" true
      (Coordination.Consistent.to_solution db outcome = None)

let test_k_friends_insufficient () =
  let db, _ = Workload.Movies.make () in
  (* Guy demands two friends but only Jonny is his friend among the
     submitters: he must be cleaned away.  (Will names Jonny directly —
     Will's own friends, Chris and Guy, are both unavailable.) *)
  let hugo user partners =
    Cquery.make movies_config ~user
      ~own:[ Cquery.Any; Cquery.Exact (vs "Hugo") ]
      ~partners
  in
  let queries =
    [
      hugo Workload.Movies.guy [ Cquery.K_friends 2 ];
      hugo Workload.Movies.jonny [ Cquery.Any_friend ];
      hugo Workload.Movies.will [ Cquery.Named Workload.Movies.jonny ];
    ]
  in
  match Coordination.Consistent.solve db movies_config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    let users =
      List.map
        (fun i -> outcome.queries.(i).Cquery.user)
        outcome.members
    in
    Alcotest.(check bool) "guy excluded" false
      (List.mem Workload.Movies.guy users);
    Alcotest.(check int) "jonny+will" 2 (List.length users)

let test_bad_k_rejected () =
  let db, _ = Workload.Movies.make () in
  let bad =
    Cquery.make movies_config ~user:Workload.Movies.guy
      ~own:[ Cquery.Any; Cquery.Any ]
      ~partners:[ Cquery.K_friends 0 ]
  in
  match Coordination.Consistent.solve db movies_config [ bad ] with
  | Error (Coordination.Consistent.Bad_k (u, 0)) ->
    Alcotest.check value_t "guy" Workload.Movies.guy u
  | _ -> Alcotest.fail "k=0 rejected"

let test_any_from_second_relation () =
  let db, _ = Workload.Movies.make () in
  (* A separate Colleagues relation: Guy's colleague is Will. *)
  let colleagues = Database.create_table' db "Colleagues" [ "user"; "peer" ] in
  ignore
    (Relation.insert colleagues [| Workload.Movies.guy; Workload.Movies.will |]);
  let hugo user partners =
    Cquery.make movies_config ~user
      ~own:[ Cquery.Any; Cquery.Exact (vs "Hugo") ]
      ~partners
  in
  let queries =
    [
      hugo Workload.Movies.guy [ Cquery.Any_from "Colleagues" ];
      hugo Workload.Movies.will [ Cquery.Any_friend ];
      hugo Workload.Movies.chris [ Cquery.Any_friend ];
    ]
  in
  match Coordination.Consistent.solve db movies_config queries with
  | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
  | Ok outcome ->
    Alcotest.(check int) "all three (guy via colleague will)" 3
      (List.length outcome.members);
    (* Expressible: cross-validate in the general formalism. *)
    (match Coordination.Consistent.to_solution db outcome with
    | None -> Alcotest.fail "expressible"
    | Some (compiled, solution) -> check_validates db compiled solution)

let test_any_from_missing_relation () =
  let db, _ = Workload.Movies.make () in
  let q =
    Cquery.make movies_config ~user:Workload.Movies.guy
      ~own:[ Cquery.Any; Cquery.Any ]
      ~partners:[ Cquery.Any_from "Nope" ]
  in
  match Coordination.Consistent.solve db movies_config [ q ] with
  | Error (Coordination.Consistent.Missing_relation "Nope") -> ()
  | _ -> Alcotest.fail "missing relation reported"

(* ------------------------------ Sqlgen ---------------------------- *)

let test_sqlgen_select () =
  let db = flights_db () in
  let q =
    Cq.make
      [ atom "F" [ var "x"; cs "Zurich" ]; atom "H" [ var "h"; var "loc" ] ]
  in
  let sql = Sqlgen.select db q [ "x"; "h" ] in
  let expected =
    "SELECT t0.fid AS x, t1.hid AS h\n\
     FROM F AS t0, H AS t1\n\
     WHERE t0.dest = 'Zurich'"
  in
  Alcotest.(check string) "select" expected sql

let test_sqlgen_join_predicate () =
  let db = flights_db () in
  (* Shared variable d joins the two tables. *)
  let q =
    Cq.make [ atom "F" [ var "x"; var "d" ]; atom "H" [ var "h"; var "d" ] ]
  in
  let sql = Sqlgen.select db q [ "d" ] in
  let expected =
    "SELECT t0.dest AS d\nFROM F AS t0, H AS t1\nWHERE t0.dest = t1.loc"
  in
  Alcotest.(check string) "join" expected sql

let test_sqlgen_exists_and_literals () =
  let db = flights_db () in
  let q = Cq.make [ atom "F" [ ci 101; cs "Zur'ich" ] ] in
  let sql = Sqlgen.exists db q in
  let expected =
    "SELECT 1\nFROM F AS t0\nWHERE t0.fid = 101\n  AND t0.dest = 'Zur''ich'\nLIMIT 1"
  in
  Alcotest.(check string) "exists" expected sql;
  Alcotest.(check string) "empty query" "SELECT 1" (Sqlgen.exists db (Cq.make []));
  Alcotest.(check string) "bool literal" "TRUE" (Sqlgen.literal (Value.bool true))

let test_sqlgen_errors () =
  let db = flights_db () in
  let raises f =
    try
      ignore (f ());
      false
    with Sqlgen.Cannot_render _ -> true
  in
  Alcotest.(check bool) "unknown relation" true
    (raises (fun () -> Sqlgen.select db (Cq.make [ atom "Zed" [ var "x" ] ]) [ "x" ]));
  Alcotest.(check bool) "arity" true
    (raises (fun () -> Sqlgen.select db (Cq.make [ atom "F" [ var "x" ] ]) [ "x" ]));
  Alcotest.(check bool) "unknown projection" true
    (raises (fun () ->
         Sqlgen.select db (Cq.make [ atom "F" [ var "x"; var "d" ] ]) [ "zz" ]))

let test_sqlgen_combined_query () =
  (* The combined query of the Figure-1 Chris+Guy component renders as
     one SQL statement, as in the paper's implementation. *)
  let db = Database.create () in
  let queries = Query.rename_set (figure1_queries db) in
  let graph = Coordination_graph.build queries in
  match Combine.unify_set graph ~members:[ 0; 1 ] with
  | Error _ -> Alcotest.fail "unifies"
  | Ok t ->
    let body = Combine.combined_body t ~members:[ 0; 1 ] in
    let sql = Sqlgen.exists db body in
    Alcotest.(check bool) "renders and joins four atoms" true
      (String.length sql > 0
      && List.length (String.split_on_char ',' sql) >= 4)

let suite =
  [
    Alcotest.test_case "online: pair fires on second submit" `Quick
      test_online_pair;
    Alcotest.test_case "online: unrelated component untouched" `Quick
      test_online_unrelated_component_untouched;
    Alcotest.test_case "online: unsafe submission rejected" `Quick
      test_online_rejects_unsafe;
    Alcotest.test_case "online: stream fires when chain completes" `Quick
      test_online_stream_matches_batch_components;
    Alcotest.test_case "online: consumes inventory" `Quick
      test_online_consumes_inventory;
    Alcotest.test_case "online: flush across components" `Quick
      test_online_flush_multiple_components;
    Alcotest.test_case "deep chain stack safety (n=2000)" `Slow
      test_deep_chain_stack_safety;
    Alcotest.test_case "k-friends coordination" `Quick test_k_friends;
    Alcotest.test_case "k-friends insufficient" `Quick test_k_friends_insufficient;
    Alcotest.test_case "k=0 rejected" `Quick test_bad_k_rejected;
    Alcotest.test_case "partner from second relation" `Quick
      test_any_from_second_relation;
    Alcotest.test_case "second relation missing" `Quick
      test_any_from_missing_relation;
    Alcotest.test_case "sqlgen select" `Quick test_sqlgen_select;
    Alcotest.test_case "sqlgen join predicate" `Quick test_sqlgen_join_predicate;
    Alcotest.test_case "sqlgen exists + literals" `Quick
      test_sqlgen_exists_and_literals;
    Alcotest.test_case "sqlgen errors" `Quick test_sqlgen_errors;
    Alcotest.test_case "sqlgen combined query" `Quick test_sqlgen_combined_query;
  ]
