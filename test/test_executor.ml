(* The component-sharded multicore batch executor: differential tests
   proving executor ≡ sequential — same solution, same stats counters,
   same trace events — across seeds, algorithms and domain counts, plus
   pool unit tests and a chaos case where one shard exhausts its budget
   and only that shard degrades. *)

open Relational
open Entangled
module Executor = Coordination.Executor
module Scc = Coordination.Scc_algo
module Stats = Coordination.Stats

let seeds = [ 1; 2; 3; 4; 5 ]
let domain_counts = [ 1; 2; 4 ]

let pairgen seed =
  Workload.Pairgen.make ~rows:400 ~topics:20 ~p_unsat:0.3 ~p_dependent:0.4
    ~seed 12

let solution_str queries = function
  | None -> "none"
  | Some s -> Format.asprintf "%a" (Solution.pp queries) s

let degraded_str = function
  | None -> "none"
  | Some d -> Format.asprintf "%a" Resilient.pp_degradation d

(* Trace items reduced to their deterministic parts: kind, name, depth
   and args — never timestamps. *)
(* [plan_hit] is dropped from span signatures: which probe compiles a
   plan shape first depends on shard execution order, so hit/miss
   attribution shifts between runs while the totals stay deterministic
   — those are compared through the stats counters instead. *)
let item_sig = function
  | Obs.Span s ->
    Format.asprintf "span %s depth=%d %s" s.Obs.name s.Obs.depth
      (String.concat ","
         (List.filter_map
            (fun (k, v) ->
              if k = "plan_hit" then None
              else
                Some
                  (k ^ "="
                  ^
                  match v with
                  | Obs.Str s -> s
                  | Obs.Int i -> string_of_int i
                  | Obs.Float f -> Printf.sprintf "%g" f
                  | Obs.Bool b -> string_of_bool b))
            s.Obs.args))
  | Obs.Event e ->
    Format.asprintf "event %s depth=%d" e.Obs.ev_name e.Obs.ev_depth

let traced f =
  let sink, drain = Obs.memory_sink () in
  let result = Obs.with_sink sink f in
  (result, List.map item_sig (drain ()))

(* ------------------------- SCC differential ----------------------- *)

let check_scc_seed ~selection seed =
  let sequential, seq_trace =
    let db, queries = pairgen seed in
    traced (fun () -> Scc.solve ~selection db queries)
  in
  let seq =
    match sequential with Ok o -> o | Error _ -> Alcotest.fail "safe workload"
  in
  List.iter
    (fun domains ->
      let parallel, par_trace =
        let db, queries = pairgen seed in
        traced (fun () -> Executor.solve_scc ~selection ~domains db queries)
      in
      let par =
        match parallel with
        | Ok o -> o
        | Error _ -> Alcotest.fail "safe workload (parallel)"
      in
      let label fmt =
        Printf.sprintf "seed %d domains %d: %s" seed domains fmt
      in
      Alcotest.(check string)
        (label "solution")
        (solution_str seq.Scc.queries seq.Scc.solution)
        (solution_str par.Scc.queries par.Scc.solution);
      Alcotest.(check string)
        (label "degraded")
        (degraded_str seq.Scc.degraded)
        (degraded_str par.Scc.degraded);
      Alcotest.(check bool)
        (label "stats counters")
        true
        (Stats.same_counters seq.Scc.stats par.Scc.stats);
      if selection = Scc.Largest then
        Alcotest.(check (list string)) (label "trace") seq_trace par_trace)
    domain_counts

let test_scc_differential () =
  List.iter (check_scc_seed ~selection:Scc.Largest) seeds

let test_scc_first_found () =
  (* First_found: the merged answer is still the sequential one, but
     sibling shards may over-probe, so only the solution is compared. *)
  List.iter
    (fun seed ->
      let db, queries = pairgen seed in
      let seq =
        match Scc.solve ~selection:Scc.First_found db queries with
        | Ok o -> o
        | Error _ -> Alcotest.fail "safe workload"
      in
      List.iter
        (fun domains ->
          let db, queries = pairgen seed in
          match
            Executor.solve_scc ~selection:Scc.First_found ~domains db queries
          with
          | Error _ -> Alcotest.fail "safe workload (parallel)"
          | Ok par ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d domains %d first-found" seed domains)
              (solution_str seq.Scc.queries seq.Scc.solution)
              (solution_str par.Scc.queries par.Scc.solution))
        domain_counts)
    seeds

(* ------------------------ Gupta differential ---------------------- *)

let test_gupta_differential () =
  List.iter
    (fun seed ->
      (* Gupta needs a unique set — a single SCC — so the workload is a
         ring, not independent pairs. *)
      let gen () = Workload.Pairgen.ring ~rows:400 ~topics:20 ~seed 10 in
      let db, queries = gen () in
      let seq =
        match Coordination.Gupta.solve db queries with
        | Ok o -> o
        | Error _ -> Alcotest.fail "safe+unique workload"
      in
      let counters_ref = ref None in
      List.iter
        (fun domains ->
          let db, queries = gen () in
          match Executor.solve_gupta ~domains db queries with
          | Error _ -> Alcotest.fail "safe+unique workload (parallel)"
          | Ok par ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d domains %d solution" seed domains)
              (solution_str seq.Coordination.Gupta.queries
                 seq.Coordination.Gupta.solution)
              (solution_str par.Coordination.Gupta.queries
                 par.Coordination.Gupta.solution);
            (* Parallel stats have a documented per-shard shape; they
               must still be identical across domain counts. *)
            (match !counters_ref with
            | None -> counters_ref := Some par.Coordination.Gupta.stats
            | Some first ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d domains %d counters stable" seed
                   domains)
                true
                (Stats.same_counters first par.Coordination.Gupta.stats)))
        domain_counts)
    seeds

(* ---------------------- Consistent differential ------------------- *)

let test_consistent_differential () =
  let config = Workload.Flights.config in
  (* A fresh database per run: the plan cache is per-database, so
     reusing one db would shift plan hits/misses between the sequential
     baseline and the parallel runs. *)
  let seq =
    let db, queries = Workload.Flights.make_worst_case ~rows:60 ~users:12 in
    match Coordination.Consistent.solve ~selection:`Largest db config queries with
    | Ok o -> o
    | Error _ -> Alcotest.fail "consistent solve failed"
  in
  List.iter
    (fun domains ->
      let db, queries = Workload.Flights.make_worst_case ~rows:60 ~users:12 in
      match Executor.solve_consistent ~domains db config queries with
      | Error _ -> Alcotest.fail "parallel consistent solve failed"
      | Ok par ->
        let open Coordination.Consistent in
        Alcotest.(check bool)
          (Printf.sprintf "domains %d members" domains)
          true
          (par.members = seq.members);
        Alcotest.(check bool)
          (Printf.sprintf "domains %d chosen value" domains)
          true
          (par.chosen_value = seq.chosen_value);
        Alcotest.(check bool)
          (Printf.sprintf "domains %d candidates" domains)
          true
          (par.candidates = seq.candidates);
        Alcotest.(check bool)
          (Printf.sprintf "domains %d choices" domains)
          true
          (par.choices = seq.choices);
        Alcotest.(check bool)
          (Printf.sprintf "domains %d counters" domains)
          true
          (Stats.same_counters seq.stats par.stats))
    domain_counts

(* ----------------------- Chaos: shard budgets --------------------- *)

(* One big component (a 6-query chain, 6 SCCs) next to three pairs.
   With a probe budget of 8 split over the 4 shards, only the chain's
   shard runs dry: everything else completes and the merged outcome
   reports exactly the chain's tail unprobed — identically for every
   domain count. *)
let chain_and_pairs () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Database.insert db "F" [ Value.Int 1; Value.Str "Zurich" ];
  let atom rel args = { Cq.rel; args = Array.of_list args } in
  let cs s = Term.Const (Value.Str s) in
  let var v = Term.Var v in
  let chain =
    List.init 6 (fun i ->
        let post =
          if i < 5 then [ atom "R" [ cs (Printf.sprintf "c%d" (i + 1)); var "x" ] ]
          else []
        in
        Query.make
          ~name:(Printf.sprintf "c%d" i)
          ~post
          ~head:[ atom "R" [ cs (Printf.sprintf "c%d" i); var "x" ] ]
          [ atom "F" [ var "x"; cs "Zurich" ] ])
  in
  let pairs =
    List.concat
      (List.init 3 (fun i ->
           let ua = Printf.sprintf "pa%d" i and ub = Printf.sprintf "pb%d" i in
           [
             Query.make ~name:ua
               ~post:[ atom "R" [ cs ub; var "x" ] ]
               ~head:[ atom "R" [ cs ua; var "x" ] ]
               [ atom "F" [ var "x"; cs "Zurich" ] ];
             Query.make ~name:ub
               ~post:[ atom "R" [ cs ua; var "y" ] ]
               ~head:[ atom "R" [ cs ub; var "y" ] ]
               [ atom "F" [ var "y"; cs "Zurich" ] ];
           ]))
  in
  (db, chain @ pairs)

let test_chaos_shard_budget () =
  let reference = ref None in
  List.iter
    (fun domains ->
      let db, queries = chain_and_pairs () in
      let g =
        Resilient.arm
          { Resilient.default_config with max_probes = Some 8 }
      in
      Database.set_guard db (Some g);
      Resilient.start_solve g;
      let outcome =
        Fun.protect
          ~finally:(fun () -> Database.set_guard db None)
          (fun () ->
            match Executor.solve_scc ~domains db queries with
            | Ok o -> o
            | Error _ -> Alcotest.fail "safe workload")
      in
      (match outcome.Scc.degraded with
      | None -> Alcotest.fail "expected the chain shard to degrade"
      | Some d ->
        (* Chain queries are indexes 0..5; every unprobed member must
           come from the chain — the pair shards kept their budgets. *)
        List.iter
          (fun members ->
            List.iter
              (fun q ->
                Alcotest.(check bool)
                  "unprobed members in the chain shard" true (q < 6))
              members)
          d.Resilient.unprobed);
      (* A coordinating set is still found: the pair shards completed,
         and the chain shard's probed prefix may legally contribute a
         candidate too — but never an unprobed query. *)
      (match outcome.Scc.solution with
      | None -> Alcotest.fail "pairs should still coordinate"
      | Some s ->
        let unprobed =
          match outcome.Scc.degraded with
          | None -> []
          | Some d -> List.concat d.Resilient.unprobed
        in
        Alcotest.(check bool)
          "solution avoids unprobed queries" true
          (List.for_all
             (fun q -> not (List.mem q unprobed))
             s.Solution.members));
      let snapshot =
        Format.asprintf "%s / %s"
          (solution_str outcome.Scc.queries outcome.Scc.solution)
          (degraded_str outcome.Scc.degraded)
      in
      match !reference with
      | None -> reference := Some snapshot
      | Some first ->
        Alcotest.(check string)
          (Printf.sprintf "domains %d deterministic degradation" domains)
          first snapshot)
    domain_counts

(* ----------------------------- Pool units ------------------------- *)

let test_pool_order () =
  let weights = Array.init 17 (fun i -> (i * 7) mod 13) in
  let results =
    Executor.Pool.map ~domains:4 ~weights (fun i -> (i * i) + 1)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "task order" ((i * i) + 1) v
      | Error _ -> Alcotest.fail "no task raised")
    results

let test_pool_exception () =
  let weights = Array.make 5 1 in
  let results =
    Executor.Pool.map ~domains:2 ~weights (fun i ->
        if i = 3 then failwith "boom" else i)
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 3, Error (Failure m) -> Alcotest.(check string) "carried" "boom" m
      | 3, _ -> Alcotest.fail "task 3 should have failed"
      | _, Ok v -> Alcotest.(check int) "others fine" i v
      | _, Error _ -> Alcotest.fail "only task 3 raised")
    results

let test_pool_weights_irrelevant () =
  (* Whatever the weights (and so the deal/steal order), results land
     in task order. *)
  List.iter
    (fun weights ->
      let results =
        Executor.Pool.map ~domains:3 ~weights (fun i -> 2 * i)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "task order" (2 * i) v
          | Error _ -> Alcotest.fail "no task raised")
        results)
    [ Array.make 9 0; Array.init 9 (fun i -> i); Array.init 9 (fun i -> 9 - i) ]

let test_pool_empty () =
  Alcotest.(check int)
    "empty batch" 0
    (Array.length (Executor.Pool.map ~domains:4 ~weights:[||] (fun i -> i)))

let suite =
  [
    Alcotest.test_case "scc: executor ≡ sequential (5 seeds × 3 domain counts)"
      `Quick test_scc_differential;
    Alcotest.test_case "scc: first-found returns the sequential answer" `Quick
      test_scc_first_found;
    Alcotest.test_case "gupta: executor ≡ sequential solution" `Quick
      test_gupta_differential;
    Alcotest.test_case "consistent: executor ≡ sequential outcome" `Quick
      test_consistent_differential;
    Alcotest.test_case "chaos: only the over-budget shard degrades" `Quick
      test_chaos_shard_budget;
    Alcotest.test_case "pool: results in task order" `Quick test_pool_order;
    Alcotest.test_case "pool: exceptions captured per task" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: steal order never changes results" `Quick
      test_pool_weights_irrelevant;
    Alcotest.test_case "pool: empty batch" `Quick test_pool_empty;
  ]
