(* The sharded online engine against the sequential oracle.

   The sharded engine partitions the live pool by bucket group across
   per-shard incremental engines; the sequential incremental engine is
   the differential oracle.  Equality must be exact at every domain
   count — pending entries (with ids), component partition, satisfied
   count, fired sets in order, the final store, and every deterministic
   stats counter — for any interleaving of submissions, batches,
   flushes, withdrawals and external inserts, with and without seeded
   chaos faults.  A durable sharded session must write the same WAL
   snapshots as a durable sequential one, and its WAL must recover and
   re-shard at any domain count.  CI sweeps SHARDED_DOMAINS ×
   CHAOS_SEED; locally the driver sweeps domains 1/2/4 itself. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online
module Sharded = Coordination.Online_sharded
module Stats = Coordination.Stats

let domain_counts =
  match
    int_of_string_opt (try Sys.getenv "SHARDED_DOMAINS" with Not_found -> "")
  with
  | Some k when k >= 1 -> [ k ]
  | Some _ | None -> [ 1; 2; 4 ]

(* ------------------------ differential driver --------------------- *)

(* Constants draw from a 4-value pool so partners, multi-member
   components, cross-shard collisions (hence migrations) and unsafe
   postconditions all occur; an occasional var-first postcondition
   exercises the wildcard bucket routing. *)
let random_query rng i =
  let g k = cs (Printf.sprintf "g%d" k) in
  let post =
    let roll = Prng.int rng 10 in
    if roll < 6 then [ atom "R" [ g (Prng.int rng 4); var "y" ] ]
    else if roll < 7 then [ atom "R" [ var "w"; var "y" ] ]
    else []
  in
  Query.make
    ~name:(Printf.sprintf "q%d" i)
    ~post
    ~head:[ atom "R" [ g (Prng.int rng 4); var "x" ] ]
    [ atom "F" [ var "x"; cs dests.(Prng.int rng (Array.length dests)) ] ]

let entry_repr (id, q) = Printf.sprintf "%d:%s" id q.Query.name

let tuples db =
  List.sort Tuple.compare (Relation.to_list (Database.relation db "F"))

(* The sharded engine's pool (with ids), partition, satisfied count and
   id allocator must equal the oracle's. *)
let check_sync ~ctx oracle sharded =
  Alcotest.(check (list string))
    (ctx "pending")
    (List.map entry_repr (Online.pending_entries oracle))
    (List.map entry_repr (Sharded.pending_entries sharded));
  Alcotest.(check (list (list int)))
    (ctx "components") (Online.components oracle) (Sharded.components sharded);
  Alcotest.(check int) (ctx "satisfied")
    (Online.total_coordinated oracle)
    (Sharded.total_coordinated sharded);
  Alcotest.(check int) (ctx "next_id") (Online.next_id oracle)
    (Sharded.next_id sharded)

(* One seeded operation — a submit, a batch, a flush, a withdrawal or an
   external insert — applied to the oracle and to the sharded engine,
   whose answers must agree.  [insert] adds one fact to both stores. *)
let seeded_op rng ~ctx ~oracle ~sharded ~insert step =
  let roll = Prng.int rng 12 in
  if roll < 6 then begin
    let q = random_query rng step in
    Alcotest.(check string)
      (ctx "submission")
      (submission_repr (Online.submit oracle q))
      (submission_repr (Sharded.submit sharded q))
  end
  else if roll < 8 then begin
    let batch = List.init (1 + Prng.int rng 3) (fun j ->
        random_query rng ((1000 * step) + j))
    in
    Alcotest.(check (list (list string)))
      (ctx "submit_all")
      (List.map fired_names (Online.submit_all oracle batch))
      (List.map fired_names (Sharded.submit_all sharded batch))
  end
  else if roll < 9 then
    Alcotest.(check (list (list string)))
      (ctx "flush")
      (List.map fired_names (Online.flush oracle))
      (List.map fired_names (Sharded.flush sharded))
  else if roll < 10 then begin
    (* Withdraw a live id (ids are allocated identically on both
       sides), or a dead one — both must agree either way. *)
    let id =
      match Online.pending_entries oracle with
      | [] -> 0
      | live -> fst (List.nth live (Prng.int rng (List.length live)))
    in
    Alcotest.(check bool)
      (ctx "withdraw")
      (Online.withdraw oracle id)
      (Sharded.withdraw sharded id)
  end
  else
    (* An external insert: both stores move, and every shard's cached
       component verdicts must be dropped, like the oracle's. *)
    insert (1000 + step, dests.(Prng.int rng 3))

let run_differential ~seed ~domains ~eager ~consume ~chaos =
  let rng = Prng.create seed in
  let db_seq = mk_db () and db_sh = mk_db () in
  let oracle = Online.create ~eager ~consume db_seq in
  let sharded = Sharded.create ~eager ~consume ~domains db_sh in
  if chaos then begin
    Database.set_guard db_seq (Some (Resilient.arm chaos_config));
    Database.set_guard db_sh (Some (Resilient.arm chaos_config))
  end;
  let ctx step m =
    Printf.sprintf "seed %d domains %d step %d: %s" seed domains step m
  in
  let insert (fid, dest) =
    Database.insert db_seq "F" [ vi fid; vs dest ];
    Database.insert db_sh "F" [ vi fid; vs dest ]
  in
  for step = 1 to 50 do
    seeded_op rng ~ctx:(ctx step) ~oracle ~sharded ~insert step;
    check_sync ~ctx:(ctx step) oracle sharded
  done;
  Alcotest.(check (list (list string)))
    (ctx 1000 "final flush")
    (List.map fired_names (Online.flush oracle))
    (List.map fired_names (Sharded.flush sharded));
  check_sync ~ctx:(ctx 1000) oracle sharded;
  Alcotest.(check (list tuple_t))
    (ctx 1001 "final store") (tuples db_seq) (tuples db_sh);
  Alcotest.(check bool)
    (ctx 1002 "deterministic stats counters equal")
    true
    (Stats.same_counters (Online.stats oracle) (Sharded.stats sharded));
  Database.set_guard db_seq None;
  Database.set_guard db_sh None

let grid = [ (true, false); (false, false); (true, true); (false, true) ]

let test_differential () =
  List.iter
    (fun domains ->
      List.iter
        (fun seed ->
          List.iter
            (fun (eager, consume) ->
              run_differential ~seed ~domains ~eager ~consume ~chaos:false)
            grid)
        [ chaos_seed; chaos_seed + 1; chaos_seed + 2 ])
    domain_counts

let test_differential_chaos () =
  List.iter
    (fun domains ->
      List.iter
        (fun (eager, consume) ->
          run_differential ~seed:chaos_seed ~domains ~eager ~consume
            ~chaos:true)
        grid)
    domain_counts

(* --------------------------- migration ---------------------------- *)

(* Two entries with disjoint bucket groups land on different shards;
   a third whose atoms touch both groups must migrate one group into
   the other's shard, after which the fused component coordinates
   exactly as the oracle says. *)
let test_migration_merges_components () =
  let q name ~post ~head =
    Query.make ~name
      ~post:(List.map (fun c -> atom "R" [ cs c; var "y" ]) post)
      ~head:[ atom "R" [ cs head; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let qs =
    [
      q "a" ~post:[] ~head:"u1";
      q "b" ~post:[] ~head:"u2";
      q "link" ~post:[ "u1"; "u2" ] ~head:"u3";
    ]
  in
  let db_sh = mk_db () in
  let sharded = Sharded.create ~eager:false ~domains:2 db_sh in
  List.iter (fun q -> ignore (Sharded.submit sharded q)) qs;
  Alcotest.(check bool)
    "distinct groups were sharded apart then merged" true
    (Sharded.migrations sharded > 0);
  let oracle = Online.create ~eager:false (mk_db ()) in
  List.iter (fun q -> ignore (Online.submit oracle q)) qs;
  Alcotest.(check (list (list int)))
    "fused partition agrees" (Online.components oracle)
    (Sharded.components sharded);
  Alcotest.(check (list (list string)))
    "fused component fires identically"
    (List.map fired_names (Online.flush oracle))
    (List.map fired_names (Sharded.flush sharded))

(* ------------------------- degraded flush ------------------------- *)

(* Under an exhausted probe budget every shard degrades rather than
   fires; degraded components stay dirty, so disarming and flushing
   again must converge to exactly the oracle's result. *)
let test_degraded_flush_converges () =
  let pool =
    [
      Query.make ~name:"qa"
        ~post:[ atom "R" [ cs "C"; var "x" ] ]
        ~head:[ atom "R" [ cs "G"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Zurich" ] ];
      Query.make ~name:"qb" ~post:[]
        ~head:[ atom "R" [ cs "C"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Zurich" ] ];
    ]
  in
  let db_sh = mk_db () in
  let sharded = Sharded.create ~eager:false ~domains:2 db_sh in
  List.iter (fun q -> ignore (Sharded.submit sharded q)) pool;
  let guard =
    Resilient.arm { Resilient.default_config with max_probes = Some 0 }
  in
  Database.set_guard db_sh (Some guard);
  Alcotest.(check int) "degraded flush fires nothing" 0
    (List.length (Sharded.flush sharded));
  Alcotest.(check bool) "degradation reported" true
    (Sharded.last_degradation sharded <> None);
  Database.set_guard db_sh None;
  let oracle = Online.create ~eager:false (mk_db ()) in
  List.iter (fun q -> ignore (Online.submit oracle q)) pool;
  Alcotest.(check (list (list string)))
    "disarmed flush converges to the oracle"
    (List.map fired_names (Online.flush oracle))
    (List.map fired_names (Sharded.flush sharded));
  Alcotest.(check bool) "degradation cleared" true
    (Sharded.last_degradation sharded = None)

(* ----------------------- journal equivalence ---------------------- *)

(* The sharded journal record stream must be byte-equivalent to the
   sequential engine's, so lib/durable can log a sharded engine without
   knowing it is sharded. *)
let record_repr = function
  | Online.Journal.Submitted { id; query } ->
    Printf.sprintf "submitted %d %s" id query.Query.name
  | Online.Journal.Rejected { id } -> Printf.sprintf "rejected %d" id
  | Online.Journal.Retired { ids } ->
    "retired " ^ String.concat "," (List.map string_of_int ids)
  | Online.Journal.Consumed { deletions } ->
    "consumed "
    ^ String.concat ","
        (List.map
           (fun (r, t) -> Format.asprintf "%s:%a" r Tuple.pp t)
           deletions)
  | Online.Journal.Op_end { fired; _ } -> Printf.sprintf "op_end %d" fired

let test_journal_stream_equivalent () =
  List.iter
    (fun domains ->
      let rng = Prng.create 7 in
      let db_seq = mk_db () and db_sh = mk_db () in
      let oracle = Online.create ~consume:true db_seq in
      let sharded = Sharded.create ~consume:true ~domains db_sh in
      let log_seq = ref [] and log_sh = ref [] in
      Online.set_journal oracle (Some (fun r -> log_seq := r :: !log_seq));
      Sharded.set_journal sharded (Some (fun r -> log_sh := r :: !log_sh));
      for step = 1 to 30 do
        let q = random_query rng step in
        ignore (Online.submit oracle q);
        ignore (Sharded.submit sharded q)
      done;
      ignore (Online.flush oracle);
      ignore (Sharded.flush sharded);
      Alcotest.(check (list string))
        (Printf.sprintf "domains %d: identical journal streams" domains)
        (List.rev_map record_repr !log_seq)
        (List.rev_map record_repr !log_sh))
    domain_counts

(* ----------------------- sharded durability ----------------------- *)

(* A durable sharded session and a durable sequential session get the
   same seeded op stream.  The sharded WAL snapshots the sharded engine
   itself — there is no mirrored sequential engine — so after every
   operation both WAL directories must hold byte-equal snapshot files.
   Recovering a crash copy of the sharded WAL and re-sharding it at a
   different domain count must then reproduce the sequential session's
   pool, ids, satisfied count and store, and keep agreeing with it. *)
let snapshot_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".img")
  |> List.sort compare
  |> List.map (fun n -> (n, read_file (Filename.concat dir n)))

let run_sharded_wal ~seed ~domains ~eager ~consume =
  let tag = Printf.sprintf "sharded-d%d-%b-%b" domains eager consume in
  let ctx step m = Printf.sprintf "%s seed %d step %d: %s" tag seed step m in
  let cfg dir = Durable.config ~fsync:Durable.Never ~snapshot_every:3 dir in
  let seq_dir = fresh_dir (tag ^ "-seq") and sh_dir = fresh_dir (tag ^ "-sh") in
  let wal_seq, db_seq, oracle =
    Durable.create_engine ~eager ~consume (cfg seq_dir)
  in
  let wal_sh, db_sh, _ = Durable.create_engine ~eager ~consume (cfg sh_dir) in
  let sharded = Durable.shard ~domains wal_sh in
  let insert_into (wal, db) (fid, dest) =
    Database.insert db "F" [ vi fid; vs dest ];
    Durable.journal_insert wal "F" [ vi fid; vs dest ]
  in
  List.iter
    (fun side ->
      ignore (Database.create_table' (snd side) "F" [ "fid"; "dest" ]);
      Durable.journal_create_table (fst side) "F" [ "fid"; "dest" ];
      List.iter (insert_into side)
        [ (101, "Zurich"); (102, "Zurich"); (200, "Paris"); (300, "Athens") ])
    [ (wal_seq, db_seq); (wal_sh, db_sh) ];
  let insert side fact =
    insert_into (wal_seq, db_seq) fact;
    insert_into side fact
  in
  let rng = Prng.create seed in
  let snapshots_seen = Hashtbl.create 8 in
  for step = 1 to 40 do
    seeded_op rng ~ctx:(ctx step) ~oracle ~sharded
      ~insert:(insert (wal_sh, db_sh)) step;
    let files = snapshot_files sh_dir in
    List.iter (fun (n, _) -> Hashtbl.replace snapshots_seen n ()) files;
    Alcotest.(check (list (pair string string)))
      (ctx step "snapshot files byte-equal")
      (snapshot_files seq_dir) files
  done;
  Alcotest.(check bool) (ctx 40 "several snapshots taken") true
    (Hashtbl.length snapshots_seen >= 3);
  (* Crash the sharded session (no close), recover the copy, re-shard. *)
  let crash = fresh_dir (tag ^ "-crash") in
  copy_dir sh_dir crash;
  let wal_rec, db_rec, _, _ =
    match Durable.recover (Durable.config ~fsync:Durable.Never crash) with
    | Ok r -> r
    | Error why -> Alcotest.failf "%s: recover failed: %s" tag why
  in
  let resharded = Durable.shard ~domains:((domains mod 4) + 1) wal_rec in
  let check_recovered step =
    check_sync ~ctx:(ctx step) oracle resharded;
    Alcotest.(check (list tuple_t)) (ctx step "store") (tuples db_seq)
      (tuples db_rec)
  in
  check_recovered 40;
  for step = 41 to 50 do
    seeded_op rng ~ctx:(ctx step) ~oracle ~sharded:resharded
      ~insert:(insert (wal_rec, db_rec)) step
  done;
  check_recovered 50;
  List.iter Durable.close [ wal_seq; wal_sh; wal_rec ];
  List.iter rm_rf [ seq_dir; sh_dir; crash ]

let test_sharded_wal () =
  List.iter
    (fun domains ->
      List.iter
        (fun (eager, consume) ->
          run_sharded_wal ~seed:chaos_seed ~domains ~eager ~consume)
        grid)
    domain_counts

let suite =
  [
    Alcotest.test_case "differential: sharded == sequential oracle" `Quick
      test_differential;
    Alcotest.test_case "differential under seeded chaos faults" `Quick
      test_differential_chaos;
    Alcotest.test_case "migration merges cross-shard components" `Quick
      test_migration_merges_components;
    Alcotest.test_case "degraded flush stays dirty and converges" `Quick
      test_degraded_flush_converges;
    Alcotest.test_case "journal streams byte-equivalent" `Quick
      test_journal_stream_equivalent;
    Alcotest.test_case "sharded WAL snapshots == sequential, re-shards"
      `Quick test_sharded_wal;
  ]
