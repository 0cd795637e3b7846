(* The columnar storage engine, tested differentially against the row
   store it mirrors.

   The row store is the oracle: a [Relation.create ~columnar:true]
   dual-writes every mutation into its {!Column_store} mirror, so after
   any operation sequence the two must agree on contents, live
   iteration order, per-column lookups and match counts.  On top of the
   store-level properties, whole solver runs — SCC, Gupta, consistent
   (sequential and parallel), online, and a budget-degraded solve — are
   replayed on a row and a columnar database and must produce identical
   solutions, identical deterministic stats (probes, plan hits/misses,
   tuples scanned) and identical degradation outcomes. *)

open Relational
open Helpers

(* A small value pool so random sequences collide: duplicate inserts,
   deletes of absent tuples, and repeated postings all get exercised. *)
let pool =
  [| vi 0; vi 1; vi 2; vi 3; vs "a"; vs "b"; vs "c"; Value.bool true |]

let random_tuple rng =
  [| pool.(Prng.int rng (Array.length pool)); pool.(Prng.int rng (Array.length pool)) |]

(* ------------------------------ Dict ------------------------------ *)

let test_dict_roundtrip () =
  let rng = Prng.create 7 in
  for _ = 1 to 500 do
    let v = pool.(Prng.int rng (Array.length pool)) in
    let id = Dict.intern v in
    Alcotest.check value_t "roundtrip" v (Dict.value id);
    Alcotest.(check int) "find agrees with intern" id (Dict.find v);
    Alcotest.(check bool) "mem_id" true (Dict.mem_id id)
  done;
  (* Interning is idempotent. *)
  let id1 = Dict.intern (vs "dict-idempotent") in
  let id2 = Dict.intern (vs "dict-idempotent") in
  Alcotest.(check int) "stable id" id1 id2

let test_dict_unknown () =
  (* [find] must not intern: an unseen value keeps reporting unknown. *)
  let v = vs "dict-never-interned" in
  Alcotest.(check int) "unknown" Dict.unknown (Dict.find v);
  Alcotest.(check int) "still unknown" Dict.unknown (Dict.find v);
  Alcotest.(check bool) "unknown id not decodable" false
    (Dict.mem_id Dict.unknown)

(* --------------------- store-level differential -------------------- *)

(* Replay a random insert/delete sequence and compare the mirror with
   its row-store oracle after every mutation. *)
let agree_after_ops seed =
  let r = Relation.create ~columnar:true (Schema.make "T" [ "a"; "b" ]) in
  let cs =
    match Relation.column_store r with
    | Some cs -> cs
    | None -> Alcotest.fail "columnar relation must expose its mirror"
  in
  let rng = Prng.create seed in
  let check_agreement () =
    Alcotest.(check int) "cardinal" (Relation.cardinal r) (Column_store.cardinal cs);
    Alcotest.(check (list tuple_t)) "contents and live order"
      (Relation.to_list r) (Column_store.to_list cs);
    Array.iter
      (fun v ->
        for col = 0 to 1 do
          Alcotest.(check (list tuple_t)) "lookup"
            (Relation.lookup r ~col v)
            (Column_store.lookup cs ~col v);
          Alcotest.(check int) "count_matching"
            (Relation.count_matching r ~col v)
            (Column_store.count_matching cs ~col v)
        done)
      pool
  in
  for step = 1 to 120 do
    let t = Tuple.make (Array.to_list (random_tuple rng)) in
    if Prng.int rng 3 = 0 then
      Alcotest.(check bool) "delete agrees" (Relation.mem r t)
        (Column_store.mem cs t)
      |> fun () -> ignore (Relation.delete r t)
    else ignore (Relation.insert r t);
    Alcotest.(check bool) "mem agrees" (Relation.mem r t)
      (Column_store.mem cs t);
    if step mod 10 = 0 then check_agreement ()
  done;
  check_agreement ();
  true

(* ---------------------- compaction invariants ---------------------- *)

let test_posting_prune_and_compact () =
  let r = Relation.create ~columnar:true (Schema.make "P" [ "k"; "v" ]) in
  let cs = Option.get (Relation.column_store r) in
  let n = 1_000 in
  for i = 0 to n - 1 do
    ignore (Relation.insert r [| vi i; vs "hot" |])
  done;
  Alcotest.(check int) "posting sees every row" n
    (Column_store.count_matching cs ~col:1 (vs "hot"));
  (* Kill 80% of the posting: the lazy prune (len > 2*count) and the
     whole-store compaction (dead > live) must both have fired. *)
  for i = 0 to n - 1 do
    if i mod 5 <> 0 then ignore (Relation.delete r [| vi i; vs "hot" |])
  done;
  let live = n / 5 in
  Alcotest.(check int) "live count" live (Column_store.cardinal cs);
  Alcotest.(check int) "posting count tracks deletes" live
    (Column_store.count_matching cs ~col:1 (vs "hot"));
  Alcotest.(check bool) "posting pruned: len <= 2 * count" true
    (Column_store.posting_length cs ~col:1 (vs "hot") <= 2 * live);
  Alcotest.(check bool) "store compacted: no dead majority" true
    (Column_store.physical_rows cs < n);
  (* Survivors keep insertion order. *)
  let expected =
    List.init live (fun j -> Tuple.make [ vi (5 * j); vs "hot" ])
  in
  Alcotest.(check (list tuple_t)) "insertion order survives compaction"
    expected (Column_store.to_list cs);
  (* Deleted tuples can come back, and land at the end of the order. *)
  Alcotest.(check bool) "reinsert" true (Relation.insert r [| vi 1; vs "hot" |]);
  Alcotest.(check bool) "reinserted tuple visible" true
    (Column_store.mem cs [| vi 1; vs "hot" |]);
  Alcotest.(check (list tuple_t)) "reinsert appends"
    (expected @ [ Tuple.make [ vi 1; vs "hot" ] ])
    (Column_store.to_list cs)

let test_explicit_compact_preserves_contents () =
  let r = Relation.create ~columnar:true (Schema.make "C" [ "a"; "b" ]) in
  let cs = Option.get (Relation.column_store r) in
  let rng = Prng.create 42 in
  for _ = 1 to 300 do
    ignore (Relation.insert r (random_tuple rng))
  done;
  for _ = 1 to 200 do
    ignore (Relation.delete r (random_tuple rng))
  done;
  let before = Column_store.to_list cs in
  Column_store.compact cs;
  Alcotest.(check (list tuple_t)) "compact is contents-invariant" before
    (Column_store.to_list cs);
  Alcotest.(check int) "compact leaves no dead rows"
    (Column_store.cardinal cs)
    (Column_store.physical_rows cs)

(* ----------------------- solver differentials ---------------------- *)

let same_stats = Coordination.Stats.same_counters

let render_solution queries = function
  | None -> "no solution"
  | Some s -> Format.asprintf "%a" (Entangled.Solution.pp queries) s

let render_degraded = function
  | None -> "not degraded"
  | Some d -> Format.asprintf "%a" Resilient.pp_degradation d

(* The Figure 1 flight/hotel instance on a chosen backend. *)
let flights_db ~backend =
  let db = Database.create ~backend () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  ignore (Database.create_table' db "H" [ "hid"; "loc" ]);
  List.iter
    (fun (f, d) -> Database.insert db "F" [ vi f; vs d ])
    [ (101, "Zurich"); (102, "Zurich"); (200, "Paris"); (300, "Athens") ];
  List.iter
    (fun (h, l) -> Database.insert db "H" [ vi h; vs l ])
    [ (7, "Paris"); (8, "Athens"); (9, "Zurich") ];
  db

(* A safe+unique pair for the Gupta baseline: A and B must share a
   Zurich flight. *)
let pair_queries () =
  let mk ?name ~post ~head body = Entangled.Query.make ?name ~post ~head body in
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

let scc_fingerprint outcome =
  let open Coordination.Scc_algo in
  ( List.map (fun c -> c.covered) outcome.candidates,
    render_solution outcome.queries outcome.solution,
    render_degraded outcome.degraded )

let solve_scc backend seed =
  let db, queries =
    Workload.Listgen.make ~backend ~rows:1_000 ~seed 10
  in
  match Coordination.Scc_algo.solve db queries with
  | Error _ -> Alcotest.fail "listgen instances are safe"
  | Ok outcome -> outcome

let scc_differential seed =
  let row = solve_scc Database.Row seed in
  let col = solve_scc Database.Columnar seed in
  scc_fingerprint row = scc_fingerprint col
  && same_stats row.Coordination.Scc_algo.stats col.Coordination.Scc_algo.stats

let test_gupta_differential () =
  let run backend =
    match Coordination.Gupta.solve (flights_db ~backend) (pair_queries ()) with
    | Error _ -> Alcotest.fail "safe+unique"
    | Ok o -> o
  in
  let row = run Database.Row and col = run Database.Columnar in
  Alcotest.(check string) "solution"
    (render_solution row.Coordination.Gupta.queries row.solution)
    (render_solution col.Coordination.Gupta.queries col.solution);
  Alcotest.(check bool) "stats" true (same_stats row.stats col.stats)

let consistent_fingerprint (o : Coordination.Consistent.outcome) =
  ( o.members,
    o.candidates,
    Option.map (Format.asprintf "%a" Tuple.pp) o.chosen_value,
    List.map (fun (u, v) -> (Value.to_string u, Value.to_string v)) o.choices,
    render_degraded o.degraded )

let test_consistent_differential () =
  let run backend =
    let db, queries = Workload.Movies.make ~backend () in
    match Coordination.Consistent.solve db Workload.Movies.config queries with
    | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
    | Ok o -> o
  in
  let row = run Database.Row and col = run Database.Columnar in
  Alcotest.(check bool) "outcome" true
    (consistent_fingerprint row = consistent_fingerprint col);
  Alcotest.(check bool) "stats" true (same_stats row.stats col.stats)

let test_parallel_differential () =
  let run backend =
    let db, queries = Workload.Movies.make ~backend () in
    match
      Coordination.Executor.solve_consistent ~domains:2 db Workload.Movies.config queries
    with
    | Error e -> Alcotest.failf "error: %a" Coordination.Consistent.pp_error e
    | Ok o -> o
  in
  let row = run Database.Row and col = run Database.Columnar in
  Alcotest.(check bool) "outcome" true
    (consistent_fingerprint row = consistent_fingerprint col);
  Alcotest.(check bool) "stats" true (same_stats row.stats col.stats)

let test_online_differential () =
  let run backend =
    let db, queries =
      Workload.Listgen.make ~backend ~rows:1_000 ~seed:11 8
    in
    let engine = Coordination.Online.create db in
    let fired =
      List.map
        (fun (c : Coordination.Online.coordinated) ->
          List.map (fun q -> q.Entangled.Query.name) c.queries)
        (Coordination.Online.submit_all engine queries)
    in
    (fired, Coordination.Online.stats engine)
  in
  let row_fired, row_stats = run Database.Row in
  let col_fired, col_stats = run Database.Columnar in
  Alcotest.(check (list (list string))) "fired sets" row_fired col_fired;
  Alcotest.(check bool) "stats" true (same_stats row_stats col_stats)

(* Degradation differential: an exhausted probe budget must cut both
   backends at the same point, leaving the same candidate prefix and the
   same unprobed components. *)
let test_degraded_differential () =
  let run backend =
    let db, queries =
      Workload.Listgen.make ~backend ~rows:1_000 ~seed:3 10
    in
    let g =
      Resilient.arm { Resilient.default_config with max_probes = Some 3 }
    in
    Resilient.start_solve g;
    Database.set_guard db (Some g);
    match Coordination.Scc_algo.solve db queries with
    | Error _ -> Alcotest.fail "listgen instances are safe"
    | Ok o -> o
  in
  let row = run Database.Row and col = run Database.Columnar in
  Alcotest.(check bool) "both degraded" true
    (row.Coordination.Scc_algo.degraded <> None
    && col.Coordination.Scc_algo.degraded <> None);
  Alcotest.(check bool) "same cut" true
    (scc_fingerprint row = scc_fingerprint col);
  Alcotest.(check bool) "stats" true
    (same_stats row.Coordination.Scc_algo.stats col.Coordination.Scc_algo.stats)

let suite =
  [
    Alcotest.test_case "dict: roundtrip" `Quick test_dict_roundtrip;
    Alcotest.test_case "dict: find does not intern" `Quick test_dict_unknown;
    qtest ~count:25 "row and columnar stores agree under random ops"
      QCheck.(int_range 0 10_000)
      agree_after_ops;
    Alcotest.test_case "posting prune + store compaction" `Quick
      test_posting_prune_and_compact;
    Alcotest.test_case "explicit compact preserves contents" `Quick
      test_explicit_compact_preserves_contents;
    qtest ~count:20 "scc solves identically on both backends"
      QCheck.(int_range 0 10_000)
      scc_differential;
    Alcotest.test_case "gupta solves identically on both backends" `Quick
      test_gupta_differential;
    Alcotest.test_case "consistent solves identically on both backends" `Quick
      test_consistent_differential;
    Alcotest.test_case "parallel consistent solves identically" `Quick
      test_parallel_differential;
    Alcotest.test_case "online engine fires identically on both backends"
      `Quick test_online_differential;
    Alcotest.test_case "budget degradation cuts both backends identically"
      `Quick test_degraded_differential;
  ]
