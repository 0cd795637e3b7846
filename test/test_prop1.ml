(* Proposition 1, tested end-to-end: for a set of A-consistent queries,
   a coordinating set exists (general Definition-1 semantics, exhaustive
   brute-force search over the compiled entangled queries) if and only
   if one exists in which all tuples agree on the coordination
   attributes (what the Consistent Coordination Algorithm searches).

   Also covers the staged prepare/values/survivors API directly, and
   error propagation through the parallel driver. *)

open Relational
open Helpers
module Cquery = Coordination.Consistent_query

(* Random small instances over a 2-attribute schema: coordinate on the
   venue, the slot is personal. *)
let schema = Schema.make "S" [ "key"; "venue"; "slot" ]

let config =
  Cquery.make_config ~s_schema:schema ~friends:"F" ~answer:"R"
    ~coord_attrs:[ 0 ]

let venues = [ "V0"; "V1"; "V2" ]
let slots = [ "s0"; "s1" ]

let user i = Value.str (Printf.sprintf "u%d" i)

let random_instance seed =
  let rng = Prng.create seed in
  let users = 2 + Prng.int rng 2 in
  let db = Database.create () in
  let s = Database.create_table db schema in
  let rows = 1 + Prng.int rng 5 in
  for k = 0 to rows - 1 do
    ignore
      (Relation.insert s
         [|
           Value.Int k;
           Value.str (Prng.pick rng venues);
           Value.str (Prng.pick rng slots);
         |])
  done;
  let f = Database.create_table' db "F" [ "user"; "friend" ] in
  for i = 0 to users - 1 do
    for j = 0 to users - 1 do
      if i <> j && Prng.float rng < 0.6 then
        ignore (Relation.insert f [| user i; user j |])
    done
  done;
  let queries =
    List.init users (fun i ->
        let venue =
          if Prng.float rng < 0.4 then Cquery.Exact (Value.str (Prng.pick rng venues))
          else Cquery.Any
        in
        let slot =
          if Prng.float rng < 0.3 then Cquery.Exact (Value.str (Prng.pick rng slots))
          else Cquery.Any
        in
        let partner =
          if Prng.float rng < 0.5 then Cquery.Any_friend
          else Cquery.Named (user (Prng.int rng users))
        in
        Cquery.make config ~user:(user i) ~own:[ venue; slot ]
          ~partners:[ partner ])
  in
  (db, queries)

let prop1_agreement seed =
  let db, queries = random_instance seed in
  let compiled = Cquery.compile_set config queries in
  let brute_exists =
    Coordination.Brute.exists_coordinating_set db compiled
  in
  match Coordination.Consistent.solve db config queries with
  | Error _ -> false
  | Ok outcome ->
    let consistent_exists = outcome.members <> [] in
    (* Proposition 1: same-value search loses nothing. *)
    brute_exists = consistent_exists
    &&
    (* And when something is found, it validates in the general
       semantics via the compiled queries. *)
    (match Coordination.Consistent.to_solution db outcome with
    | None -> not consistent_exists
    | Some (compiled, solution) ->
      Entangled.Solution.validate db compiled solution = Ok ())

let test_staged_api () =
  let db, queries = Workload.Movies.make () in
  match Coordination.Consistent.prepare db Workload.Movies.config queries with
  | Error e -> Alcotest.failf "prepare: %a" Coordination.Consistent.pp_error e
  | Ok p ->
    let values = Coordination.Consistent.values p in
    Alcotest.(check int) "three candidate cinemas" 3 (List.length values);
    let survivors name =
      fst (Coordination.Consistent.survivors p (Tuple.make [ Value.str name ]))
    in
    Alcotest.(check (list int)) "cinemark cleans to empty" [] (survivors "Cinemark");
    Alcotest.(check int) "regal keeps three" 3 (List.length (survivors "Regal"));
    (* survivors is pure: same input, same answer. *)
    Alcotest.(check (list int)) "pure" (survivors "Regal") (survivors "Regal")

let test_parallel_error_propagation () =
  let db, queries = Workload.Movies.make () in
  match
    Coordination.Executor.solve_consistent db Workload.Movies.config
      (queries @ [ List.hd queries ])
  with
  | Error (Coordination.Consistent.Duplicate_user u) ->
    Alcotest.check value_t "chris" Workload.Movies.chris u
  | _ -> Alcotest.fail "duplicate user must propagate"

let test_gupta_unification_clash () =
  (* Safe and unique, but the mutual unification clashes on a repeated
     variable: the baseline must report Unification_failed. *)
  let db = flights_db () in
  let queries =
    [
      Entangled.Query.make ~name:"a"
        ~post:[ atom "R" [ var "x"; var "x" ] ]
        ~head:[ atom "Q" [ var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      Entangled.Query.make ~name:"b"
        ~post:[ atom "Q" [ ci 101 ] ]
        ~head:[ atom "R" [ ci 101; ci 102 ] ]
        [];
    ]
  in
  match Coordination.Gupta.solve db queries with
  | Error (Coordination.Gupta.Unification_failed _) -> ()
  | Error e ->
    Alcotest.failf "wrong error: %a"
      (Coordination.Gupta.pp_error (Entangled.Query.rename_set queries))
      e
  | Ok _ -> Alcotest.fail "must clash"

let suite =
  [
    Alcotest.test_case "staged prepare/values/survivors" `Quick test_staged_api;
    Alcotest.test_case "parallel propagates errors" `Quick
      test_parallel_error_propagation;
    Alcotest.test_case "gupta reports unification clashes" `Quick
      test_gupta_unification_clash;
    qtest ~count:120 "proposition 1: existence matches brute force"
      QCheck.(int_range 0 1_000_000)
      prop1_agreement;
  ]
