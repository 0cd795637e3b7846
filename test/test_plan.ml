(* Compiled query plans: differential agreement with the greedy
   reference evaluator (Eval_oracle) on workload databases, plan-cache keying, and index posting
   maintenance across delete/compact cycles. *)

open Relational
open Helpers

let q atoms = Cq.make atoms

(* ---------------- differential: workload databases ---------------- *)

(* Random bodies over a real database: atoms over its relations, each
   argument a variable from a small pool (joins arise from reuse), a
   constant that actually occurs in that column (selective and
   satisfiable), or a junk constant (exercises empty index postings). *)
let random_body rng db =
  let rels = Database.relations db in
  let n_atoms = 1 + Prng.int rng 3 in
  let atoms =
    List.init n_atoms (fun _ ->
        let r = Prng.pick rng rels in
        let args =
          Array.init (Relation.arity r) (fun col ->
              match Prng.int rng 5 with
              | 0 | 1 | 2 ->
                Term.Var (Printf.sprintf "v%d" (Prng.int rng 4))
              | 3 -> (
                match Value.Set.elements (Relation.distinct_values r ~col) with
                | [] -> Term.int 424242
                | vs -> Term.const (Prng.pick rng vs))
              | _ -> Term.int 424242)
        in
        { Cq.rel = Relation.name r; args })
  in
  q atoms

let check_differential ~seed ~rounds db =
  let rng = Prng.create seed in
  for i = 1 to rounds do
    let body = random_body rng db in
    let reference = Eval_oracle.greedy db body in
    if not (valuations_equal reference (Eval.find_all db body)) then
      Alcotest.failf "round %d: compiled disagrees with the oracle on %a" i
        Cq.pp body;
    (* count and satisfiable must agree with the same enumeration. *)
    let n = List.length reference in
    Alcotest.(check int) "count agrees" n (Eval.count db body);
    Alcotest.(check bool) "satisfiable agrees" (n > 0) (Eval.satisfiable db body)
  done

let test_differential_movies () =
  let db, _queries = Workload.Movies.make () in
  check_differential ~seed:31 ~rounds:120 db

let test_differential_flights () =
  let db = Database.create () in
  ignore (Workload.Flights.install_flights db ~rows:60);
  ignore (Workload.Flights.install_complete_friends db ~users:8);
  check_differential ~seed:77 ~rounds:120 db

(* ------------------------ plan-cache keying ----------------------- *)

(* Isomorphic up to variable renaming and constant values: one key. *)
let test_key_isomorphic () =
  let k1 = Plan.key (q [ atom "F" [ var "x"; cs "Zurich" ]; atom "H" [ var "y"; var "x" ] ]) in
  let k2 = Plan.key (q [ atom "F" [ var "a"; cs "Paris" ]; atom "H" [ var "b"; var "a" ] ]) in
  Alcotest.(check string) "isomorphic queries share a key" k1 k2;
  (* Different join structure: different key. *)
  let k3 = Plan.key (q [ atom "F" [ var "a"; cs "Paris" ]; atom "H" [ var "b"; var "b" ] ]) in
  Alcotest.(check bool) "different shape, different key" false (k1 = k3);
  (* Variable vs constant in the same position: different key. *)
  let k4 = Plan.key (q [ atom "F" [ var "x"; var "z" ]; atom "H" [ var "y"; var "x" ] ]) in
  Alcotest.(check bool) "const vs var, different key" false (k1 = k4)

let test_cache_sharing () =
  let db = flights_db () in
  Database.reset_counters db;
  let q1 = q [ atom "F" [ var "x"; cs "Zurich" ] ] in
  let q2 = q [ atom "F" [ var "dest"; cs "Paris" ] ] in
  ignore (Eval.find_all db q1);
  ignore (Eval.find_all db q2);
  ignore (Eval.find_all db q1);
  Alcotest.(check int) "one shape cached" 1 (Database.plan_cache_size db);
  let c = Database.counters db in
  Alcotest.(check int) "one miss" 1 c.Counters.plan_misses;
  Alcotest.(check int) "two hits" 2 c.Counters.plan_hits;
  (* The shared plan must not leak one instance's constants into the
     other: the two probes see different rows. *)
  let dests body =
    Eval.find_all db body
    |> List.map (fun b -> Eval.Binding.find "x" b)
    |> List.sort_uniq Value.compare
  in
  Alcotest.(check (list value_t)) "Zurich probe"
    [ vi 101; vi 102 ]
    (dests (q [ atom "F" [ var "x"; cs "Zurich" ] ]));
  Alcotest.(check (list value_t)) "Paris probe" [ vi 200 ]
    (dests (q [ atom "F" [ var "x"; cs "Paris" ] ]))

let test_cache_invalidation () =
  let db = flights_db () in
  ignore (Eval.find_all db (q [ atom "F" [ var "x"; var "y" ] ]));
  Alcotest.(check bool) "plan cached" true (Database.plan_cache_size db > 0);
  ignore (Database.create_table' db "G" [ "a" ]);
  Alcotest.(check int) "cache cleared on create_table" 0
    (Database.plan_cache_size db);
  (* A dropped relation makes cached plans for it unusable; the cache is
     cleared, and a fresh evaluation raises as the interpreter would. *)
  ignore (Eval.find_all db (q [ atom "G" [ var "a" ] ]));
  Database.drop_table db "G";
  Alcotest.(check int) "cache cleared on drop_table" 0
    (Database.plan_cache_size db);
  Alcotest.check_raises "unknown after drop" (Eval.Unknown_relation "G")
    (fun () -> ignore (Eval.find_all db (q [ atom "G" [ var "a" ] ])))

(* Same shape, different constants, selective position: results must
   come from each instance's own constant even though the compiled plan
   is shared (constants are parameters, never baked into the plan). *)
let test_shared_plan_distinct_constants () =
  let db = Database.create () in
  ignore (Database.create_table' db "E" [ "src"; "dst" ]);
  for i = 0 to 9 do
    Database.insert db "E" [ vi i; vi (i + 1) ]
  done;
  Database.reset_counters db;
  for i = 0 to 9 do
    let body = q [ atom "E" [ ci i; var "y" ] ] in
    match Eval.find_all db body with
    | [ b ] ->
      Alcotest.check value_t
        (Printf.sprintf "successor of %d" i)
        (vi (i + 1))
        (Eval.Binding.find "y" b)
    | other -> Alcotest.failf "probe %d: %d results" i (List.length other)
  done;
  let c = Database.counters db in
  Alcotest.(check int) "one compilation serves ten probes" 1
    c.Counters.plan_misses;
  Alcotest.(check int) "nine hits" 9 c.Counters.plan_hits

(* ------------------ index postings under deletes ------------------ *)

let test_posting_pruning () =
  let r = Relation.create (Schema.make "T" [ "k"; "v" ]) in
  (* 100 rows sharing one key, so everything lands in one posting. *)
  for i = 0 to 99 do
    ignore (Relation.insert r (tup [ vi 7; vi i ]))
  done;
  (* Pad with other keys so store-wide compaction (at >1/2 dead overall)
     does not kick in while we watch the single posting prune. *)
  for i = 1000 to 1199 do
    ignore (Relation.insert r (tup [ vi i; vi i ]))
  done;
  Alcotest.(check int) "posting built" 100
    (Relation.posting_length r ~col:0 (vi 7));
  (* Delete 49 of 100: dead (49) < live (51), no pruning yet. *)
  for i = 0 to 48 do
    ignore (Relation.delete r (tup [ vi 7; vi i ]))
  done;
  Alcotest.(check int) "live count" 51 (Relation.count_matching r ~col:0 (vi 7));
  Alcotest.(check int) "tombstones retained below threshold" 100
    (Relation.posting_length r ~col:0 (vi 7));
  (* Two more deletes tip dead past live: the posting filters itself. *)
  ignore (Relation.delete r (tup [ vi 7; vi 49 ]));
  ignore (Relation.delete r (tup [ vi 7; vi 50 ]));
  Alcotest.(check int) "live count after tip" 49
    (Relation.count_matching r ~col:0 (vi 7));
  Alcotest.(check int) "posting pruned in place" 49
    (Relation.posting_length r ~col:0 (vi 7));
  (* Lookups agree with a fresh scan after pruning. *)
  Alcotest.(check int) "lookup sees live rows only" 49
    (List.length (Relation.lookup r ~col:0 (vi 7)))

let test_delete_compact_cycles () =
  let db = Database.create () in
  ignore (Database.create_table' db "E" [ "a"; "b" ]);
  let r = Database.relation db "E" in
  let body = q [ atom "E" [ ci 1; var "y" ] ] in
  (* Churn: fill, query, delete most, query, repeat.  Each round crosses
     both the posting-pruning and the whole-store compaction thresholds;
     results must stay exact and the invariant posting <= 2*live must
     hold after every delete. *)
  for round = 0 to 4 do
    for i = 0 to 49 do
      Database.insert db "E" [ vi 1; vi ((100 * round) + i) ]
    done;
    Alcotest.(check int)
      (Printf.sprintf "round %d: all rows visible" round)
      (50 + (5 * round))
      (Eval.count db body);
    for i = 0 to 44 do
      ignore (Relation.delete r (tup [ vi 1; vi ((100 * round) + i) ]));
      let live = Relation.count_matching r ~col:0 (vi 1) in
      let posting = Relation.posting_length r ~col:0 (vi 1) in
      if posting > 2 * live then
        Alcotest.failf "round %d: posting %d > 2*live %d" round posting live
    done;
    Alcotest.(check int)
      (Printf.sprintf "round %d: survivors visible" round)
      (5 * (round + 1))
      (Eval.count db body);
    (* The compiled path and the oracle agree on the churned store. *)
    Alcotest.(check bool)
      (Printf.sprintf "round %d: differential" round)
      true
      (valuations_equal (Eval_oracle.greedy db body) (Eval.find_all db body))
  done

(* ---------------------- observed plan statistics ------------------ *)

let scanned_total db =
  List.fold_left
    (fun acc (_, plan) ->
      Array.fold_left
        (fun acc (so : Plan.step_stat) -> acc + so.Plan.s_scanned)
        acc (Plan.stats plan).Plan.steps_obs)
    0 (Database.cached_plans db)

(* The always-on per-step scanned counters and the engine's
   [tuples_scanned] counter meter the same thing; their totals must
   agree exactly. *)
let test_observed_equals_tuples_scanned () =
  let db = flights_db () in
  Database.reset_counters db;
  List.iter
    (fun body -> ignore (Eval.find_all db body))
    [
      q [ atom "F" [ var "x"; cs "Zurich" ] ];
      q [ atom "F" [ var "x"; var "d" ]; atom "H" [ var "h"; var "d" ] ];
      q [ atom "F" [ var "x"; cs "Paris" ] ];
      q [ atom "F" [ var "x"; var "d" ]; atom "H" [ var "h"; var "d" ] ];
    ];
  let c = Database.counters db in
  Alcotest.(check bool) "something was scanned" true
    (c.Counters.tuples_scanned > 0);
  Alcotest.(check int) "per-step scanned totals tuples_scanned"
    c.Counters.tuples_scanned (scanned_total db)

let test_estimates_and_drift () =
  let db = flights_db () in
  let body = q [ atom "F" [ var "x"; cs "Zurich" ] ] in
  let plan, _ = Database.prepare db body in
  let stats = Plan.stats plan in
  (* 4 live rows over 3 distinct destinations: ceil(4/3) = 2 per
     bucket is the compile-time estimate of the dest-index access. *)
  Alcotest.(check int) "estimate is the average bucket" 2
    stats.Plan.est_rows.(0);
  Alcotest.(check int) "compiled at the current data version"
    (Database.data_version db) stats.Plan.compiled_version;
  Alcotest.(check (float 0.001)) "never entered: drift is 1" 1.0
    (Plan.max_drift plan);
  ignore (Eval.find_all db body);
  (* The Zurich bucket really holds 2 rows: the estimate is exact. *)
  Alcotest.(check int) "executions" 1 stats.Plan.executions;
  Alcotest.(check (float 0.001)) "observed matches the estimate" 1.0
    (Plan.max_drift plan);
  (* Skew the data after compilation: the same plan now scans a much
     bigger bucket than it was planned for, and drift says so. *)
  for i = 1 to 5 do
    Database.insert db "F" [ vi (400 + i); Value.str "Zurich" ]
  done;
  ignore (Eval.find_all db body);
  Alcotest.(check int) "executions accumulate" 2 stats.Plan.executions;
  (* Mean scanned per entry is (2 + 7) / 2 = 4.5 against estimate 2. *)
  Alcotest.(check (float 0.001)) "drift reflects the skew" 2.25
    (Plan.max_drift plan);
  Alcotest.(check bool) "cache hit stamped the data version" true
    (stats.Plan.last_seen_version > stats.Plan.compiled_version);
  Alcotest.(check int) "stamped with the current version"
    (Database.data_version db) stats.Plan.last_seen_version;
  Plan.reset_stats plan;
  Alcotest.(check int) "reset zeroes executions" 0 stats.Plan.executions;
  Alcotest.(check int) "reset zeroes step counters" 0 (scanned_total db);
  Alcotest.(check (float 0.001)) "reset zeroes drift" 1.0 (Plan.max_drift plan)

(* Analyze mode adds per-step and whole-plan wall clock; the counters
   do not depend on it. *)
let test_analyze_mode_times_steps () =
  let db = flights_db () in
  let body = q [ atom "F" [ var "x"; var "d" ]; atom "H" [ var "h"; var "d" ] ] in
  let plan, _ = Database.prepare db body in
  let stats = Plan.stats plan in
  ignore (Eval.find_all db body);
  Alcotest.(check bool) "no timing when disarmed" true
    (stats.Plan.exec_ns = 0L
    && Array.for_all
         (fun (so : Plan.step_stat) -> so.Plan.s_ns = 0L)
         stats.Plan.steps_obs);
  Plan.set_analyze true;
  Fun.protect
    ~finally:(fun () -> Plan.set_analyze false)
    (fun () -> ignore (Eval.find_all db body));
  Alcotest.(check bool) "analyze accrues plan time" true
    (stats.Plan.exec_ns > 0L);
  Alcotest.(check bool) "analyze accrues step time" true
    (Array.exists
       (fun (so : Plan.step_stat) -> so.Plan.s_ns > 0L)
       stats.Plan.steps_obs)

let test_pp_analyze_renders () =
  let db = flights_db () in
  let body = q [ atom "F" [ var "x"; cs "Zurich" ] ] in
  ignore (Eval.find_all db body);
  let plan, _ = Database.prepare db body in
  let s = Format.asprintf "%a" Plan.pp_analyze plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "pp_analyze mentions %S" needle)
        true (contains s needle))
    [ "est_rows="; "scanned="; "emitted="; "sel="; "executions=" ]

let suite =
  [
    Alcotest.test_case "differential: movies" `Quick test_differential_movies;
    Alcotest.test_case "differential: flights" `Quick test_differential_flights;
    Alcotest.test_case "key: isomorphism classes" `Quick test_key_isomorphic;
    Alcotest.test_case "cache: isomorphic probes share" `Quick test_cache_sharing;
    Alcotest.test_case "cache: schema changes invalidate" `Quick
      test_cache_invalidation;
    Alcotest.test_case "cache: constants stay per-instance" `Quick
      test_shared_plan_distinct_constants;
    Alcotest.test_case "postings: prune at half dead" `Quick test_posting_pruning;
    Alcotest.test_case "postings: delete/compact cycles" `Quick
      test_delete_compact_cycles;
    Alcotest.test_case "stats: observed == tuples_scanned" `Quick
      test_observed_equals_tuples_scanned;
    Alcotest.test_case "stats: estimates, drift, versions, reset" `Quick
      test_estimates_and_drift;
    Alcotest.test_case "stats: analyze mode times steps" `Quick
      test_analyze_mode_times_steps;
    Alcotest.test_case "stats: pp_analyze renders the table" `Quick
      test_pp_analyze_renders;
  ]
