(* Unit tests for the relational substrate: values, schemas, tuples,
   relations, databases, the growable vector, and CSV I/O. *)

open Relational
open Helpers

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = -1) v);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v))
    (Vec.fold_left ( + ) 0 v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 100 out of bounds [0,100)")
    (fun () -> ignore (Vec.get v 100));
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_of_list () =
  let v = Vec.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "roundtrip" [ 3; 1; 4; 1; 5 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 3; 1; 4; 1; 5 |] (Vec.to_array v)

let test_value_order () =
  let values = [ vi 2; vi 1; vs "b"; vs "a"; Value.bool true; Value.bool false ] in
  let sorted = List.sort Value.compare values in
  Alcotest.(check (list value_t)) "order"
    [ vi 1; vi 2; vs "a"; vs "b"; Value.bool false; Value.bool true ]
    sorted

let test_value_string_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.check value_t
        (Value.to_string v)
        v
        (Value.of_string (Value.to_string v)))
    [ vi 0; vi (-17); vi 123456; vs "Zurich"; Value.bool true; Value.bool false ]

let test_value_pp_quotes () =
  Alcotest.(check string) "identifier" "Zurich" (Value.to_string (vs "Zurich"));
  Alcotest.(check string) "quoted" "'New York'" (Value.to_string (vs "New York"))

let test_schema () =
  let s = Schema.make "F" [ "fid"; "dest" ] in
  Alcotest.(check string) "name" "F" (Schema.name s);
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index_of s "dest");
  Alcotest.(check bool) "mem" true (Schema.mem_attribute s "fid");
  Alcotest.(check bool) "not mem" false (Schema.mem_attribute s "nope");
  Alcotest.(check string) "attribute" "dest" (Schema.attribute s 1);
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.make: duplicate attribute \"a\" in X") (fun () ->
      ignore (Schema.make "X" [ "a"; "a" ]))

let test_tuple () =
  let t = tup [ vi 1; vs "x" ] in
  Alcotest.(check int) "arity" 2 (Tuple.arity t);
  Alcotest.check value_t "get" (vs "x") (Tuple.get t 1);
  Alcotest.check tuple_t "project" (tup [ vs "x"; vi 1 ]) (Tuple.project t [ 1; 0 ]);
  Alcotest.(check bool) "equal" true (Tuple.equal t (tup [ vi 1; vs "x" ]));
  Alcotest.(check bool) "hash-consistent"
    true
    (Tuple.hash t = Tuple.hash (tup [ vi 1; vs "x" ]));
  Alcotest.(check int) "compare shorter" (-1)
    (compare (Tuple.compare (tup [ vi 1 ]) t) 0)

let test_relation_set_semantics () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Alcotest.(check bool) "first insert" true
    (Relation.insert r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check bool) "duplicate" false
    (Relation.insert r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check int) "cardinal" 1 (Relation.cardinal r);
  Alcotest.(check bool) "mem" true (Relation.mem r (tup [ vi 1; vs "Zurich" ]))

let test_relation_lookup () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Relation.insert_list r
    [
      tup [ vi 1; vs "Zurich" ];
      tup [ vi 2; vs "Zurich" ];
      tup [ vi 3; vs "Paris" ];
    ];
  let zurich = Relation.lookup r ~col:1 (vs "Zurich") in
  Alcotest.(check int) "lookup count" 2 (List.length zurich);
  Alcotest.(check int) "count_matching" 2
    (Relation.count_matching r ~col:1 (vs "Zurich"));
  Alcotest.(check int) "count absent" 0
    (Relation.count_matching r ~col:1 (vs "Rome"));
  (* Index stays consistent across later inserts. *)
  ignore (Relation.insert r (tup [ vi 4; vs "Zurich" ]));
  Alcotest.(check int) "post-insert index" 3
    (Relation.count_matching r ~col:1 (vs "Zurich"))

let test_relation_distinct () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Relation.insert_list r
    [ tup [ vi 1; vs "A" ]; tup [ vi 2; vs "A" ]; tup [ vi 3; vs "B" ] ];
  Alcotest.(check int) "distinct dests" 2
    (Value.Set.cardinal (Relation.distinct_values r ~col:1));
  Alcotest.(check int) "distinct projection" 2
    (Tuple.Set.cardinal (Relation.distinct_projection r ~cols:[ 1 ]));
  Alcotest.(check int) "active domain" 5
    (Value.Set.cardinal (Relation.active_domain r))

let test_relation_delete () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Relation.insert_list r
    [
      tup [ vi 1; vs "Zurich" ];
      tup [ vi 2; vs "Zurich" ];
      tup [ vi 3; vs "Paris" ];
    ];
  (* Warm the index, then delete through it. *)
  Alcotest.(check int) "zurich pre" 2 (Relation.count_matching r ~col:1 (vs "Zurich"));
  Alcotest.(check bool) "delete" true (Relation.delete r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check bool) "absent now" false (Relation.delete r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r);
  Alcotest.(check int) "zurich post" 1 (Relation.count_matching r ~col:1 (vs "Zurich"));
  Alcotest.(check int) "lookup filtered" 1
    (List.length (Relation.lookup r ~col:1 (vs "Zurich")));
  Alcotest.(check bool) "mem gone" false (Relation.mem r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check int) "scan skips dead" 2 (List.length (Relation.to_list r));
  (* Reinsert after delete works. *)
  Alcotest.(check bool) "reinsert" true (Relation.insert r (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check int) "back to 3" 3 (Relation.cardinal r);
  Alcotest.(check int) "zurich again" 2
    (Relation.count_matching r ~col:1 (vs "Zurich"))

let test_relation_delete_compaction () =
  let r = Relation.create (Schema.make "N" [ "v" ]) in
  for i = 0 to 99 do
    ignore (Relation.insert r (tup [ vi i ]))
  done;
  ignore (Relation.lookup r ~col:0 (vi 0));
  (* Delete 60% — forces a compaction along the way. *)
  for i = 0 to 59 do
    ignore (Relation.delete r (tup [ vi i ]))
  done;
  Alcotest.(check int) "forty left" 40 (Relation.cardinal r);
  Alcotest.(check bool) "survivor present" true (Relation.mem r (tup [ vi 99 ]));
  Alcotest.(check bool) "victim gone" false (Relation.mem r (tup [ vi 10 ]));
  Alcotest.(check int) "index consistent after compaction" 1
    (Relation.count_matching r ~col:0 (vi 80));
  Alcotest.(check int) "distinct values" 40
    (Value.Set.cardinal (Relation.distinct_values r ~col:0));
  (* Order invariants the online engine's candidate order and the
     byte-equal snapshots rely on: killing 80% of one hot posting
     compacts the store, survivors keep insertion order, and a deleted
     tuple inserted again lands at the end. *)
  let p = Relation.create (Schema.make "P" [ "k"; "v" ]) in
  let n = 1_000 in
  for i = 0 to n - 1 do
    ignore (Relation.insert p (tup [ vi i; vs "hot" ]))
  done;
  for i = 0 to n - 1 do
    if i mod 5 <> 0 then ignore (Relation.delete p (tup [ vi i; vs "hot" ]))
  done;
  let live = n / 5 in
  Alcotest.(check int) "live count" live (Relation.cardinal p);
  Alcotest.(check int) "posting count tracks deletes" live
    (Relation.count_matching p ~col:1 (vs "hot"));
  Alcotest.(check bool) "posting pruned: len <= 2 * count" true
    (Relation.posting_length p ~col:1 (vs "hot") <= 2 * live);
  let expected = List.init live (fun j -> tup [ vi (5 * j); vs "hot" ]) in
  Alcotest.(check (list tuple_t)) "insertion order survives compaction"
    expected (Relation.to_list p);
  Alcotest.(check bool) "reinsert" true
    (Relation.insert p (tup [ vi 1; vs "hot" ]));
  Alcotest.(check (list tuple_t)) "reinsert appends"
    (expected @ [ tup [ vi 1; vs "hot" ] ])
    (Relation.to_list p);
  Alcotest.(check int) "count_matching sees the reinsert" (live + 1)
    (Relation.count_matching p ~col:1 (vs "hot"))

let test_relation_delete_under_eval () =
  (* Choose-1 semantics sees inventory disappear. *)
  let db = flights_db () in
  let q = Cq.make [ atom "F" [ var "x"; cs "Zurich" ] ] in
  Alcotest.(check int) "two zurich flights" 2 (Eval.count db q);
  ignore (Relation.delete (Database.relation db "F") (tup [ vi 101; vs "Zurich" ]));
  Alcotest.(check int) "one left" 1 (Eval.count db q);
  ignore (Relation.delete (Database.relation db "F") (tup [ vi 102; vs "Zurich" ]));
  Alcotest.(check bool) "sold out" false (Eval.satisfiable db q)

let test_relation_arity_check () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Relation F: tuple arity 1, expected 2") (fun () ->
      ignore (Relation.insert r (tup [ vi 1 ])))

let test_database () =
  let db = flights_db () in
  Alcotest.(check int) "two tables" 2 (List.length (Database.relations db));
  Alcotest.(check int) "tuples" 7 (Database.total_tuples db);
  Alcotest.(check bool) "mem" true (Database.mem_relation db "F");
  Database.drop_table db "H";
  Alcotest.(check bool) "dropped" false (Database.mem_relation db "H");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Database.relation db "H"));
  Alcotest.check_raises "double create"
    (Invalid_argument "Database.create_table: F already exists") (fun () ->
      ignore (Database.create_table' db "F" [ "x" ]))

let test_database_probes () =
  let db = flights_db () in
  Alcotest.(check int) "initially zero" 0 (Database.probes db);
  Database.count_probe db;
  Database.count_probe db;
  Alcotest.(check int) "counted" 2 (Database.probes db);
  Database.reset_probes db;
  Alcotest.(check int) "reset" 0 (Database.probes db)

let test_csv_roundtrip () =
  let rows =
    [
      [ "fid"; "dest" ];
      [ "1"; "Zurich" ];
      [ "2"; "New, York" ];
      [ "3"; "say \"hi\"" ];
      [ "4"; "two\nlines" ];
    ]
  in
  let parsed = Csv_io.parse_string (Csv_io.write_string rows) in
  Alcotest.(check (list (list string))) "roundtrip" rows parsed

let test_csv_crlf () =
  let parsed = Csv_io.parse_string "a,b\r\n1,2\r\n" in
  Alcotest.(check (list (list string))) "crlf" [ [ "a"; "b" ]; [ "1"; "2" ] ] parsed

let test_csv_relation_roundtrip () =
  let db = flights_db () in
  let path = Filename.temp_file "entangle_test" ".csv" in
  Csv_io.save_relation (Database.relation db "F") ~path;
  let db2 = Database.create () in
  let r =
    Csv_io.load_relation db2 ~schema:(Schema.make "F" [ "fid"; "dest" ]) ~path
  in
  Sys.remove path;
  Alcotest.(check int) "same cardinality" 4 (Relation.cardinal r);
  Alcotest.(check bool) "same content" true
    (Relation.mem r (tup [ vi 101; vs "Zurich" ]))

(* save_relation then load_relation is the identity on tuples, for
   strings that read like other values ("42", "true", "'x'") and
   strings that need CSV quoting alike. *)
let test_csv_relation_roundtrip_property =
  let value =
    QCheck.Gen.(
      frequency
        [
          (2, map Value.int small_signed_int);
          (1, map Value.bool bool);
          ( 4,
            map Value.str
              (oneof
                 [
                   oneofl
                     [ "42"; "-7"; "true"; "false"; "'x'"; "''"; "'"; "";
                       "Zurich"; "New, York"; "say \"hi\""; "two\nlines" ];
                   string_size ~gen:(oneofl [ '\''; '"'; ','; '\n'; '1'; 'a'; ' ' ])
                     (0 -- 5);
                 ]) );
        ])
  in
  let row = QCheck.Gen.(map (fun l -> Tuple.make l) (list_repeat 3 value)) in
  let rows =
    QCheck.make
      ~print:(fun ts -> String.concat "; " (List.map (Format.asprintf "%a" Tuple.pp) ts))
      QCheck.Gen.(list_size (0 -- 8) row)
  in
  qtest ~count:300 "csv: save_relation then load_relation keeps tuples" rows
    (fun ts ->
      let schema = Schema.make "T" [ "a"; "b"; "c" ] in
      let db = Database.create () in
      let r = Database.create_table db schema in
      List.iter (fun t -> ignore (Relation.insert r t)) ts;
      let path = Filename.temp_file "entangle_test" ".csv" in
      Csv_io.save_relation r ~path;
      let loaded =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () -> Csv_io.load_relation (Database.create ()) ~schema ~path)
      in
      let sorted r = List.sort Tuple.compare (Relation.to_list r) in
      List.equal Tuple.equal (sorted r) (sorted loaded))

let test_csv_header_mismatch () =
  let path = Filename.temp_file "entangle_test" ".csv" in
  let oc = open_out path in
  output_string oc "wrong,header\n1,2\n";
  close_out oc;
  let db = Database.create () in
  let raised =
    try
      ignore
        (Csv_io.load_relation db ~schema:(Schema.make "F" [ "fid"; "dest" ]) ~path);
      false
    with Csv_io.Parse_error (1, _) -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "parse error" true raised

(* data_version is a per-database stamp: two live databases must move
   independently, and only actual content changes move it. *)
let test_data_version_per_database () =
  let a = Database.create () in
  let b = Database.create () in
  let a0 = Database.data_version a and b0 = Database.data_version b in
  ignore (Database.create_table' a "F" [ "fid"; "dest" ]);
  Alcotest.(check bool) "create bumps a" true (Database.data_version a > a0);
  Alcotest.(check int) "create leaves b alone" b0 (Database.data_version b);
  let a1 = Database.data_version a in
  Database.insert a "F" [ vi 1; vs "Zurich" ];
  Alcotest.(check bool) "insert bumps a" true (Database.data_version a > a1);
  Alcotest.(check int) "insert leaves b alone" b0 (Database.data_version b);
  let a2 = Database.data_version a in
  (* duplicate insert and absent delete are no-ops: stamp must not move *)
  Database.insert a "F" [ vi 1; vs "Zurich" ];
  ignore (Relation.delete (Database.relation a "F") (tup [ vi 99; vs "x" ]));
  Alcotest.(check int) "no-op mutations don't bump" a2 (Database.data_version a);
  ignore (Relation.delete (Database.relation a "F") (tup [ vi 1; vs "Zurich" ]));
  Alcotest.(check bool) "delete bumps a" true (Database.data_version a > a2);
  (* the other direction: mutating b never moves a *)
  let a3 = Database.data_version a in
  ignore (Database.create_table' b "G" [ "x" ]);
  Database.insert b "G" [ vi 7 ];
  Alcotest.(check bool) "b moved" true (Database.data_version b > b0);
  Alcotest.(check int) "b's mutations leave a alone" a3 (Database.data_version a);
  (* worker views share the owner's stamp *)
  let wv = Database.worker_view a in
  Alcotest.(check int) "worker view shares stamp" a3 (Database.data_version wv);
  Database.insert a "F" [ vi 2; vs "Paris" ];
  Alcotest.(check int) "stamp stays shared after mutation"
    (Database.data_version a) (Database.data_version wv)

(* Observed statistics on relations: monotone insert/delete tallies
   (surviving compaction), first-column distinct counts, and the
   estimate_bucket cardinality estimate. *)
let test_relation_stats () =
  let r = Relation.create (Schema.make "F" [ "fid"; "dest" ]) in
  Alcotest.(check int) "no inserts yet" 0 (Relation.inserts r);
  Alcotest.(check int) "empty estimate" 0 (Relation.estimate_bucket r ~col:0);
  for i = 1 to 8 do
    ignore (Relation.insert r (tup [ vi i; vs "Zurich" ]))
  done;
  ignore (Relation.insert r (tup [ vi 1; vs "Zurich" ]));
  (* duplicate *)
  Alcotest.(check int) "8 inserts, duplicate ignored" 8 (Relation.inserts r);
  Alcotest.(check int) "0 deletes" 0 (Relation.deletes r);
  Alcotest.(check int) "distinct fids" 8 (Relation.distinct_count r ~col:0);
  Alcotest.(check int) "distinct dests" 1 (Relation.distinct_count r ~col:1);
  Alcotest.(check int) "uniform bucket" 1 (Relation.estimate_bucket r ~col:0);
  Alcotest.(check int) "skewed bucket" 8 (Relation.estimate_bucket r ~col:1);
  (* delete 6 of 8: forces a compaction (dead > live/2), counters and
     estimates must survive the rebuild *)
  for i = 1 to 6 do
    ignore (Relation.delete r (tup [ vi i; vs "Zurich" ]))
  done;
  ignore (Relation.delete r (tup [ vi 99; vs "nowhere" ]));
  (* absent *)
  Alcotest.(check int) "6 deletes, absent ignored" 6 (Relation.deletes r);
  Alcotest.(check int) "inserts still monotone" 8 (Relation.inserts r);
  Alcotest.(check int) "cardinal after compaction" 2 (Relation.cardinal r);
  Alcotest.(check int) "distinct fids after compaction" 2
    (Relation.distinct_count r ~col:0);
  Alcotest.(check int) "estimate after compaction" 1
    (Relation.estimate_bucket r ~col:0);
  (* ceil division: 3 tuples over 2 distinct first args -> 2 *)
  ignore (Relation.insert r (tup [ vi 7; vs "Paris" ]));
  Alcotest.(check int) "ceil estimate" 2 (Relation.estimate_bucket r ~col:0)


let arbitrary_value =
  QCheck.Gen.(
    oneof
      [
        map Value.int (int_range (-100) 100);
        map Value.str (oneofl [ "a"; "b"; "Zurich"; "Paris"; "x y" ]);
        map Value.bool bool;
      ])

let value_arb = QCheck.make ~print:Value.to_string arbitrary_value

let suite =
  [
    Alcotest.test_case "vec basics" `Quick test_vec_basics;
    Alcotest.test_case "vec of_list" `Quick test_vec_of_list;
    Alcotest.test_case "value order" `Quick test_value_order;
    Alcotest.test_case "value string roundtrip" `Quick test_value_string_roundtrip;
    Alcotest.test_case "value pp quoting" `Quick test_value_pp_quotes;
    Alcotest.test_case "schema" `Quick test_schema;
    Alcotest.test_case "tuple" `Quick test_tuple;
    Alcotest.test_case "relation set semantics" `Quick test_relation_set_semantics;
    Alcotest.test_case "relation indexed lookup" `Quick test_relation_lookup;
    Alcotest.test_case "relation distinct" `Quick test_relation_distinct;
    Alcotest.test_case "relation delete" `Quick test_relation_delete;
    Alcotest.test_case "relation delete compaction" `Quick
      test_relation_delete_compaction;
    Alcotest.test_case "relation delete under eval" `Quick
      test_relation_delete_under_eval;
    Alcotest.test_case "relation arity check" `Quick test_relation_arity_check;
    Alcotest.test_case "database" `Quick test_database;
    Alcotest.test_case "database probes" `Quick test_database_probes;
    Alcotest.test_case "data_version is per-database" `Quick
      test_data_version_per_database;
    Alcotest.test_case "relation observed stats (row)" `Quick
      test_relation_stats;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv crlf" `Quick test_csv_crlf;
    Alcotest.test_case "csv relation roundtrip" `Quick test_csv_relation_roundtrip;
    Alcotest.test_case "csv header mismatch" `Quick test_csv_header_mismatch;
    test_csv_relation_roundtrip_property;
    qtest "value compare total order"
      QCheck.(triple value_arb value_arb value_arb)
      (fun (a, b, c) ->
        let sgn x = compare x 0 in
        (* antisymmetry and transitivity spot checks *)
        (not (Value.compare a b = 0) || Value.equal a b)
        && (not (Value.compare a b < 0 && Value.compare b c < 0)
           || Value.compare a c < 0)
        && sgn (Value.compare a b) = -sgn (Value.compare b a));
    qtest "value hash respects equality" QCheck.(pair value_arb value_arb)
      (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b);
    qtest "vec push/get agree with list"
      QCheck.(list small_int)
      (fun xs ->
        let v = Vec.of_list xs in
        List.length xs = Vec.length v && Vec.to_list v = xs);
    qtest "value of_string . to_string = id" value_arb (fun v ->
        (* Strings with spaces print quoted and parse back exactly. *)
        Value.equal v (Value.of_string (Value.to_string v)));
  ]
