(* The incremental online engine's machinery, case by case.

   The engine (persistent atom index, stored edges, dirty tracking) must
   be observationally equivalent to [Online_oracle], which re-derives
   the coordination graph of the whole pool on every evaluation; the
   differential harness (test/test_differential.ml) checks that on
   random traces.  The cases here pin the incremental machinery
   (dirty-component skipping, deep-chain traversal, proven-quiet
   arrivals, store-write re-dirtying, inventory conflict reporting,
   stats folding) individually. *)

open Relational
open Entangled
open Helpers
module Online = Coordination.Online

(* Admit [queries] unevaluated under the next ids, as recovery replays
   a journaled pool ({!Online.restore_submit}), then evaluate them with
   a flush.  Only this path pools an unsafe component: a submit rejects
   the arrival that would make one. *)
let restore_then_flush engine queries =
  List.iter
    (fun q -> Online.restore_submit engine ~id:(Online.next_id engine) q)
    queries;
  Online.flush engine

(* ------------------------- dirty tracking ------------------------- *)

(* A pair whose bodies are unsatisfiable grounds nothing but costs a
   database probe per evaluation.  A flush with no intervening change
   must skip the (clean) component entirely — no new probes — while an
   external insert dirties it again. *)
let test_flush_skips_clean_components () =
  let db = flights_db () in
  let engine = Online.create db in
  let pair =
    [
      Query.make ~name:"a"
        ~post:[ atom "R" [ cs "B"; var "x" ] ]
        ~head:[ atom "R" [ cs "A"; var "x" ] ]
        [ atom "F" [ var "x"; cs "Nowhere" ] ];
      Query.make ~name:"b"
        ~post:[ atom "R" [ cs "A"; var "y" ] ]
        ~head:[ atom "R" [ cs "B"; var "y" ] ]
        [ atom "F" [ var "y"; cs "Nowhere" ] ];
    ]
  in
  List.iter (fun q -> ignore (Online.submit engine q)) pair;
  let probes_after_pair = (Online.stats engine).Coordination.Stats.db_probes in
  Alcotest.(check bool) "the pair was probed" true (probes_after_pair > 0);
  Alcotest.(check (list (list string))) "nothing fires" []
    (List.map fired_names (Online.flush engine));
  Alcotest.(check int) "clean component skipped: no new probes"
    probes_after_pair
    (Online.stats engine).Coordination.Stats.db_probes;
  (* Any store mutation invalidates cached verdicts. *)
  Database.insert db "F" [ vi 999; vs "Paris" ];
  ignore (Online.flush engine);
  Alcotest.(check bool) "store change re-evaluates" true
    ((Online.stats engine).Coordination.Stats.db_probes > probes_after_pair)

(* --------------------------- deep chains -------------------------- *)

(* A chain-shaped pool tens of thousands of queries long, arriving head
   first: every arrival has an unmatched postcondition and joins a
   quiet component, so each is answered [Pending] without a solve — and
   the quiet check must not walk the component, or the stream costs
   O(n^2).  Component discovery must not recurse (a recursive DFS
   overflowed the call stack here) and the incremental partition must
   agree with the rebuilt one. *)
let test_components_deep_chain () =
  let n = 50_000 in
  let queries = List.init n (fun i -> chain_query i ~last:false) in
  let oracle = Online_oracle.create (Database.create ()) in
  let engine = Online.create (Database.create ()) in
  List.iter (Online_oracle.admit oracle) queries;
  Alcotest.(check int) "the oracle's flush fires nothing" 0
    (List.length (Online_oracle.flush oracle));
  List.iteri
    (fun i q ->
      match Online.submit engine q with
      | Online.Pending -> ()
      | other -> Alcotest.failf "arrival %d: %s" i (submission_repr other))
    queries;
  let full = Online_oracle.components oracle in
  Alcotest.(check int) "one component" 1 (List.length full);
  Alcotest.(check int) "all members" n (List.length (List.hd full));
  Alcotest.(check (list (list int)))
    "incremental partition agrees" full (Online.components engine)

(* ---------------------- bounded atom indexes ---------------------- *)

(* Every chain names fresh partner constants, as a long-running serve
   sees them.  [run_chains] submits [chains] chains of [chain_len] queries,
   leaving off the tail of each chain [c] with [not (tail c)], and checks
   after every submission that each internal table is bounded by the
   live pool. *)
let chain_len = 4

let run_chains ~chains ~tail =
  let engine = Online.create (flights_db ()) in
  for c = 0 to chains - 1 do
    List.init
      (if tail c then chain_len else chain_len - 1)
      (fun i ->
        chain_query ~prefix:(Printf.sprintf "c%du" c) i ~last:(i = chain_len - 1))
    |> List.iter (fun q ->
           ignore (Online.submit engine q);
           let live = Online.pending_count engine in
           List.iter
             (fun (table, n) ->
               if n > 2 * (live + 1) then
                 Alcotest.failf "table %s holds %d with %d live entries" table
                   n live)
             (Online.table_sizes engine))
  done;
  engine

(* 2,000 chains that each fire when their tail arrives: every table
   stays within the live pool and is empty once the pool is. *)
let test_tables_follow_live_pool () =
  let engine = run_chains ~chains:2_000 ~tail:(fun _ -> true) in
  Alcotest.(check int) "every chain fired" (2_000 * chain_len)
    (Online.total_coordinated engine);
  Alcotest.(check bool) "tables empty with the pool" true
    (List.for_all (fun (_, n) -> n = 0) (Online.table_sizes engine))

(* Even chains fire; odd chains never get their tail and are withdrawn.
   Once every entry is gone, both atom indexes hold no key at all: their
   size follows the live pool, not requests served. *)
let test_index_keys_follow_live_pool () =
  let chains = 200 in
  let engine = run_chains ~chains ~tail:(fun c -> c mod 2 = 0) in
  Alcotest.(check int) "even chains fired" (chains / 2 * chain_len)
    (Online.total_coordinated engine);
  let pending = chains / 2 * (chain_len - 1) in
  let index_keys () =
    let size name = List.assoc name (Online.table_sizes engine) in
    (size "posts_index_keys", size "heads_index_keys")
  in
  Alcotest.(check (pair int int)) "one key per live constant"
    (pending, pending) (index_keys ());
  List.iter
    (fun (id, _) -> ignore (Online.withdraw engine id))
    (Online.pending_entries engine);
  Alcotest.(check (pair int int)) "no key outlives its entries" (0, 0)
    (index_keys ())

(* -------------------------- graph handoff ------------------------- *)

(* Pools of var-first posts (compatible with every R head, their
   owner's own included) and constant ones, each restored and flushed
   in turn ({!restore_then_flush}), which keeps unsafe components
   pending; a withdrawal and a
   fire make the engine drop edges and re-fuse the survivors.  After
   each step every component's graph must be [Coordination_graph.build]'s
   ({!Helpers.check_component_graphs}); the differential harness runs
   the same check on random traces. *)
let test_component_graph_matches_build () =
  let q ?(dest = "Zurich") name post head =
    Query.make ~name ~post ~head:[ atom "R" [ cs head; var "x" ] ]
      [ atom "F" [ var "x"; cs dest ] ]
  and r c = atom "R" [ c; var "y" ] in
  let db = mk_db () in
  let engine = Online.create db in
  let step f = ignore (f ()); check_component_graphs engine in
  List.iter
    (fun query -> step (fun () -> restore_then_flush engine [ query ]))
    [ q "a" [ r (cs "g1") ] "g0"; q "b" [ r (var "w") ] "g1";
      q ~dest:"Nowhere" "c" [ r (cs "g0") ] "g2"; q ~dest:"Nowhere" "d" [] "g1";
      q "e" [ r (cs "g2"); r (var "v") ] "g3" ];
  Alcotest.(check int) "the unsafe pool waits" 5 (Online.pending_count engine);
  step (fun () -> Online.withdraw engine 1);
  step (fun () -> Online.flush engine);
  step (fun () -> Online.withdraw engine 4);
  Database.insert db "F" [ vi 999; vs "Nowhere" ];
  step (fun () -> Online.flush engine);
  Alcotest.(check int) "a Nowhere flight fires the rest" 0
    (Online.pending_count engine)

(* ---------------------------- self-loops -------------------------- *)

(* The arrival's var-first postcondition is compatible with its partner's
   head and with its own head.  [Coordination_graph.build] has both
   edges, so the batch solver calls the post ambiguous; the engine's
   admission must store the self-loop too, or it would find the pair
   safe and evaluate it instead of rejecting the arrival.  The partner's
   body matches no flight, so it waits in the pool. *)
let test_self_loop_makes_arrival_unsafe () =
  let partner =
    Query.make ~name:"partner" ~post:[]
      ~head:[ atom "R" [ cs "a"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Nowhere" ] ]
  in
  let arrival =
    Query.make ~name:"arrival"
      ~post:[ atom "R" [ var "w"; var "y" ] ]
      ~head:[ atom "R" [ cs "b"; var "z" ] ]
      [ atom "F" [ var "z"; cs "Zurich" ] ]
  in
  let expected =
    match Coordination.Scc_algo.solve (flights_db ()) [ partner; arrival ] with
    | Error (Coordination.Scc_algo.Not_safe ws) -> ws
    | Ok _ -> Alcotest.fail "the batch solver must find the pair unsafe"
  in
  Alcotest.(check (list (pair int int))) "the arrival's post is ambiguous"
    [ (1, 0) ] expected;
  let engine = Online.create (flights_db ()) in
  ignore (Online.submit engine partner);
  Alcotest.(check string) "online verdict == batch verdict"
    (submission_repr (Online.Rejected_unsafe expected))
    (submission_repr (Online.submit engine arrival))

(* ------------------------ inventory conflicts --------------------- *)

let test_consume_double_spend_reported () =
  (* One Zurich flight; unification merges the pair's body variables, so
     both members ground onto the same tuple — one unit of inventory
     demanded twice. *)
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  Database.insert db "F" [ vi 101; vs "Zurich" ];
  Database.insert db "F" [ vi 200; vs "Paris" ];
  let engine = Online.create ~consume:true db in
  let gwyneth =
    Query.make ~name:"gwyneth"
      ~post:[ atom "R" [ cs "Chris"; var "x" ] ]
      ~head:[ atom "R" [ cs "Gwyneth"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let chris =
    Query.make ~name:"chris" ~post:[]
      ~head:[ atom "R" [ cs "Chris"; var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ]
  in
  ignore (Online.submit engine gwyneth);
  (match Online.submit engine chris with
  | Online.Coordinated c ->
    Alcotest.(check int) "pair fires" 2 (List.length c.Online.queries)
  | _ -> Alcotest.fail "pair must coordinate");
  (match Online.last_inventory_conflict engine with
  | Some { double_spent = [ ("F", t) ]; missing = [] } ->
    Alcotest.(check tuple_t) "the shared tuple" (tup [ vi 101; vs "Zurich" ]) t
  | Some _ -> Alcotest.fail "unexpected conflict shape"
  | None -> Alcotest.fail "double spend must be reported");
  (* The tuple is booked once; the unrelated row survives. *)
  Alcotest.(check int) "inventory booked once" 1
    (Relation.cardinal (Database.relation db "F"));
  (* The next operation clears the report. *)
  ignore (Online.flush engine);
  Alcotest.(check bool) "conflict cleared" true
    (Online.last_inventory_conflict engine = None)

let test_consume_disjoint_inventory_no_conflict () =
  (* Two Zurich flights and no variable sharing: members book distinct
     tuples, so no conflict is recorded. *)
  let db = flights_db () in
  let engine = Online.create ~consume:true db in
  let a =
    Query.make ~name:"a"
      ~post:[ atom "R" [ cs "B"; var "y" ] ]
      ~head:[ atom "R" [ cs "A"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  in
  let b =
    Query.make ~name:"b" ~post:[]
      ~head:[ atom "R" [ cs "B"; var "y" ] ]
      [ atom "H" [ var "y"; cs "Zurich" ] ]
  in
  ignore (Online.submit engine a);
  (match Online.submit engine b with
  | Online.Coordinated _ -> ()
  | _ -> Alcotest.fail "pair must coordinate");
  Alcotest.(check bool) "no conflict" true
    (Online.last_inventory_conflict engine = None)

(* --------------------------- stats fold --------------------------- *)

let test_stats_merge () =
  let open Coordination.Stats in
  let a = create () in
  a.db_probes <- 3;
  a.graph_ns <- 10L;
  a.candidates <- 2;
  a.plan_hits <- 1;
  a.tuples_scanned <- 7;
  let b = create () in
  b.db_probes <- 4;
  b.graph_ns <- 5L;
  b.unify_ns <- 2L;
  b.cleaning_rounds <- 1;
  b.plan_misses <- 6;
  b.commit_ns <- 9L;
  merge ~into:a b;
  Alcotest.(check int) "probes" 7 a.db_probes;
  Alcotest.(check int64) "graph" 15L a.graph_ns;
  Alcotest.(check int64) "unify" 2L a.unify_ns;
  Alcotest.(check int64) "commit" 9L a.commit_ns;
  Alcotest.(check int) "candidates" 2 a.candidates;
  Alcotest.(check int) "cleaning" 1 a.cleaning_rounds;
  Alcotest.(check int) "hits" 1 a.plan_hits;
  Alcotest.(check int) "misses" 6 a.plan_misses;
  Alcotest.(check int) "scanned" 7 a.tuples_scanned;
  (* [from] is untouched. *)
  Alcotest.(check int) "source intact" 4 b.db_probes

(* A degraded flush must not haunt the next one: [last_degradation]
   reports the most recent operation only, so once the guard is gone
   and the retry succeeds the flag reads [None] again (regression test
   for a stale-flag bug — the flag used to survive the recovery). *)
let test_degradation_flag_cleared_on_recovery () =
  let db = mk_db () in
  let engine = Online.create db in
  let qa =
    Query.make ~name:"qa"
      ~post:[ atom "R" [ cs "C"; var "x" ] ]
      ~head:[ atom "R" [ cs "G"; var "x" ] ]
      [ atom "F" [ var "x"; cs "Zurich" ] ]
  and qb =
    Query.make ~name:"qb" ~post:[]
      ~head:[ atom "R" [ cs "C"; var "y" ] ]
      [ atom "F" [ var "y"; cs "Zurich" ] ]
  in
  Alcotest.(check string) "qa waits for its partner" "pending"
    (submission_repr (Online.submit engine qa));
  (* An exhausted probe budget degrades qb's evaluation: nothing fires. *)
  let guard =
    Resilient.arm ~max_probes:0 ()
  in
  Database.set_guard db (Some guard);
  Alcotest.(check string) "degraded arrival fires nothing" "pending"
    (submission_repr (Online.submit engine qb));
  Alcotest.(check bool)
    "degradation reported" true
    (Online.last_degradation engine <> None);
  (* Guard gone: the component is still dirty, the pair fires, and the
     stale degradation flag is cleared by the successful operation. *)
  Database.set_guard db None;
  Alcotest.(check int) "pair fires" 1 (List.length (Online.flush engine));
  Alcotest.(check bool)
    "degradation cleared after recovery" true
    (Online.last_degradation engine = None)

(* ---------------------- proven-quiet arrivals --------------------- *)

let probes engine = (Online.stats engine).Coordination.Stats.db_probes

(* [f ()] and the number of components it evaluated: its "scc.solve"
   spans, counted in a memory sink. *)
let traced f =
  let sink, drain = Obs.memory_sink () in
  let r = Obs.with_sink sink f in
  ( r,
    List.length
      (List.filter
         (function Obs.Span s -> s.Obs.name = "scc.solve" | Obs.Event _ -> false)
         (drain ())) )

(* A flush caches an unsafe component's verdict (it is clean), but the
   component is not quiet: an arrival with an unmatched postcondition
   that joins it must still be rejected, with the batch solver's
   witnesses. *)
let test_quiet_unsafe_component_still_rejects () =
  let pool =
    [
      rq "p" ~post:[ "k" ] ~head:"a";
      rq "h1" ~post:[] ~head:"k";
      rq "h2" ~post:[] ~head:"k";
    ]
  in
  let arrival = rq "z" ~post:[ "nowhere" ] ~head:"k" in
  let expected =
    match Coordination.Scc_algo.solve (flights_db ()) (pool @ [ arrival ]) with
    | Error (Coordination.Scc_algo.Not_safe ws) -> ws
    | Ok _ -> Alcotest.fail "the batch solver must find the pool unsafe"
  in
  let engine = Online.create (flights_db ()) in
  Alcotest.(check int) "unsafe component fires nothing" 0
    (List.length (restore_then_flush engine pool));
  Alcotest.(check int) "its verdict is cached" 0
    (List.assoc "dirty" (Online.table_sizes engine));
  Alcotest.(check string) "arrival rejected as batch"
    (submission_repr (Online.Rejected_unsafe expected))
    (submission_repr (Online.submit engine arrival))

(* A degraded evaluation proves nothing, so its component is never
   quiet: once the guard is gone, an arrival with an unmatched
   postcondition re-evaluates it, and the partner fires. *)
let test_quiet_never_after_degraded () =
  let db = flights_db () in
  let engine = Online.create db in
  Database.set_guard db
    (Some (Resilient.arm ~max_probes:0 ()));
  Alcotest.(check string) "partner pending under the guard" "pending"
    (submission_repr (Online.submit engine (rq "b" ~post:[] ~head:"b0")));
  Alcotest.(check bool) "its evaluation degraded" true
    (Online.last_degradation engine <> None);
  Database.set_guard db None;
  Alcotest.(check string) "arrival re-evaluates the component" "fired b"
    (submission_repr
       (Online.submit engine
          (rq "z" ~post:[ "b0"; "nowhere" ] ~head:"z0")))

(* Quiet verdicts hold for one store: an external insert sends the next
   arrival down the full path, which probes again. *)
let test_quiet_dropped_by_external_insert () =
  let db = flights_db () in
  let engine = Online.create db in
  ignore (Online.submit engine (rq ~dest:"Nowhere" "b" ~post:[] ~head:"b0"));
  let after_b = probes engine in
  Alcotest.(check bool) "the partner was probed" true (after_b > 0);
  let arrival i =
    rq (Printf.sprintf "z%d" i)
      ~post:[ "b0"; Printf.sprintf "nowhere%d" i ]
      ~head:(Printf.sprintf "z%d" i)
  in
  Alcotest.(check string) "quiet arrival pending" "pending"
    (submission_repr (Online.submit engine (arrival 1)));
  Alcotest.(check int) "proven quiet: no probe" after_b (probes engine);
  Database.insert db "F" [ vi 999; vs "Paris" ];
  Alcotest.(check string) "next arrival pending" "pending"
    (submission_repr (Online.submit engine (arrival 2)));
  Alcotest.(check bool) "store moved: the component is probed again" true
    (probes engine > after_b)

(* A head-first Figure 4 chain: each of the first 31 arrivals has an
   unmatched postcondition and joins a quiet component, so none runs
   the solver; the tail's arrival fires the whole chain. *)
let test_quiet_chain_runs_one_solve () =
  let n = 32 in
  let db, chain = Workload.Listgen.make ~rows:1_000 ~topics:10 ~seed:3 n in
  let engine = Online.create db in
  let pending, head_solves =
    traced (fun () ->
        List.map
          (fun q -> submission_repr (Online.submit engine q))
          (List.filteri (fun i _ -> i < n - 1) chain))
  in
  Alcotest.(check (list string)) "31 arrivals pending"
    (List.init (n - 1) (fun _ -> "pending"))
    pending;
  Alcotest.(check int) "no solve before the tail" 0 head_solves;
  let tail, tail_solves =
    traced (fun () -> Online.submit engine (List.nth chain (n - 1)))
  in
  Alcotest.(check int) "one solve for the tail" 1 tail_solves;
  (match tail with
  | Online.Coordinated c ->
    Alcotest.(check int) "the whole chain fires" n (List.length c.Online.queries)
  | other -> Alcotest.failf "tail: %s" (submission_repr other));
  Alcotest.(check int) "one candidate per member" n
    (Online.stats engine).Coordination.Stats.candidates

(* [commit_ns] charges fires only: the head of a 2-chain arrives proven
   quiet and reads no clock for it, the tail fires and commits. *)
let test_commit_time_charges_fires_only () =
  let db, chain = Workload.Listgen.make ~rows:100 ~topics:10 ~seed:5 2 in
  let engine = Online.create db in
  let stats = Online.stats engine in
  Alcotest.(check string) "head pending" "pending"
    (submission_repr (Online.submit engine (List.hd chain)));
  Alcotest.(check int64) "no commit for a quiet arrival" 0L
    stats.Coordination.Stats.commit_ns;
  (match Online.submit engine (List.nth chain 1) with
  | Online.Coordinated _ -> ()
  | other -> Alcotest.failf "tail: %s" (submission_repr other));
  Alcotest.(check bool) "the fire's commit is timed" true
    (stats.Coordination.Stats.commit_ns > 0L)

(* --------------------- store writes re-dirty --------------------- *)

(* perfbench's market shape: each buyer books a window seat and waits
   for a partner whose head no pooled query has, so pruning removes it
   whatever the store holds.  Half arrive one by one (proven quiet, no
   solve), half are restored and flushed ({!restore_then_flush}: each
   evaluated, pruned, no probe).  A restock of 32 seats and a flush
   must then evaluate nothing. *)
let test_restock_reevaluates_no_blocked_buyer () =
  let db = Database.create () in
  ignore (Database.create_table' db "Seats" [ "flight"; "kind"; "seat" ]);
  let seats = ref 0 in
  let restock f =
    incr seats;
    Database.insert db "Seats"
      [ vs (Printf.sprintf "F%d" f); vs "W"; vi !seats ]
  in
  for f = 0 to 63 do
    restock f
  done;
  let engine = Online.create ~consume:true db in
  let buyer i =
    Query.make
      ~name:(Printf.sprintf "a%d" i)
      ~post:[ atom "R" [ cs (Printf.sprintf "b%d" i); var "y" ] ]
      ~head:[ atom "R" [ cs (Printf.sprintf "a%d" i); var "x" ] ]
      [ atom "Seats" [ cs (Printf.sprintf "F%d" i); cs "W"; var "x" ] ]
  in
  List.iter
    (fun i ->
      Alcotest.(check string) "buyer waits" "pending"
        (submission_repr (Online.submit engine (buyer i))))
    (List.init 32 Fun.id);
  let restored, restored_solves =
    traced (fun () ->
        restore_then_flush engine (List.init 32 (fun i -> buyer (32 + i))))
  in
  Alcotest.(check int) "the restored buyers fire nothing" 0
    (List.length restored);
  Alcotest.(check int) "the flush evaluates each restored buyer" 32
    restored_solves;
  Alcotest.(check int) "pruned before any probe" 0 (probes engine);
  let fired, flush_solves =
    traced (fun () ->
        for k = 0 to 31 do
          restock k
        done;
        Online.flush engine)
  in
  Alcotest.(check int) "the restock fires nothing" 0 (List.length fired);
  Alcotest.(check int) "the restock's flush evaluates nothing" 0 flush_solves;
  Alcotest.(check int) "64 buyers wait" 64 (Online.pending_count engine)

let redirtied () =
  Option.fold ~none:0 ~some:Obs.Counter.value
    (Obs.Counter.find "online.store_redirty")

(* A pair that waits on the store: both bodies want an "open" row of R.
   Only an insert into R can change that verdict: an insert into S (a
   table neither reads) and a delete from R re-evaluate nothing, an
   insert into R re-evaluates the pair, and once the row is there the
   pair fires.  [online.store_redirty] counts the re-dirtied entries. *)
let test_store_writes_redirty_only_readers () =
  let db = Database.create () in
  ignore (Database.create_table' db "R" [ "k"; "state" ]);
  ignore (Database.create_table' db "S" [ "k"; "state" ]);
  Database.insert db "R" [ vi 1; vs "closed" ];
  Database.insert db "R" [ vi 2; vs "closed" ];
  let engine = Online.create db in
  let member name partner =
    Query.make ~name
      ~post:[ atom "Meet" [ cs partner; var "y" ] ]
      ~head:[ atom "Meet" [ cs name; var "x" ] ]
      [ atom "R" [ var "x"; cs "open" ] ]
  in
  ignore (Online.submit engine (member "a" "b"));
  Alcotest.(check string) "the pair waits on R" "pending"
    (submission_repr (Online.submit engine (member "b" "a")));
  Alcotest.(check bool) "the pair was probed" true (probes engine > 0);
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) @@ fun () ->
  let flush_after write =
    let before = redirtied () in
    let fired, solves =
      traced (fun () ->
          write ();
          Online.flush engine)
    in
    (List.concat_map fired_names fired, solves, redirtied () - before)
  in
  let outcome = Alcotest.(triple (list string) int int) in
  Alcotest.check outcome "insert into S" ([], 0, 0)
    (flush_after (fun () -> Database.insert db "S" [ vi 3; vs "open" ]));
  Alcotest.check outcome "delete from R" ([], 0, 0)
    (flush_after (fun () ->
         let r = Database.relation db "R" in
         ignore (Relation.delete r (tup [ vi 1; vs "closed" ]))));
  Alcotest.check outcome "insert into R" ([], 1, 2)
    (flush_after (fun () -> Database.insert db "R" [ vi 4; vs "closed" ]));
  Alcotest.check outcome "an open row of R" ([ "a"; "b" ], 1, 2)
    (flush_after (fun () -> Database.insert db "R" [ vi 5; vs "open" ]))

(* A head variable outside the body is grounded from the store's
   active domain, so on an empty store the query cannot fire, and an
   insert into any table can enable it. *)
let test_unbound_head_variable_reads_every_table () =
  let db = Database.create () in
  ignore (Database.create_table' db "R" [ "k" ]);
  let engine = Online.create db in
  let free =
    Query.make ~name:"free" ~post:[] ~head:[ atom "Meet" [ var "x" ] ] []
  in
  Alcotest.(check string) "empty store: no value for x" "pending"
    (submission_repr (Online.submit engine free));
  ignore (Database.create_table' db "S" [ "k" ]);
  Database.insert db "S" [ vi 7 ];
  Alcotest.(check (list (list string)))
    "a row anywhere grounds x" [ [ "free" ] ]
    (List.map fired_names (Online.flush engine))

(* ----------------------------- witness ---------------------------- *)

(* One op sequence drawn from CHAOS_SEED: 3 to 5 Figure 4 chains of 2
   to 6 queries arrive head first, interleaved.  Chain 0 wants a
   Nowhere flight, which the store gains only after every chain is in,
   so the closing flush fires it; one non-tail member of chain 1 is
   withdrawn just before its tail arrives, so only the members past it
   fire.  A booking pair that grounds on one shared Zurich flight
   closes the sequence. *)
let witness_ops st =
  let int n = Random.State.int st n in
  let chains = 3 + int 3 in
  let lens = Array.init chains (fun _ -> 2 + int 5) in
  let queue c =
    List.init lens.(c) (fun i ->
        let name k = Printf.sprintf "c%du%d" c k in
        rq (name i)
          ~dest:(if c = 0 then "Nowhere" else "Zurich")
          ~post:(if i = lens.(c) - 1 then [] else [ name (i + 1) ])
          ~head:(name i))
  in
  let queues = Array.init chains queue in
  let withdrawn = int (lens.(1) - 1) in
  let ids = ref 0 and chain1 = ref [] and ops = ref [] in
  let push op = ops := op :: !ops in
  let rec go () =
    match List.filter (fun c -> queues.(c) <> []) (List.init chains Fun.id) with
    | [] -> ()
    | live ->
      let c = List.nth live (int (List.length live)) in
      let q = List.hd queues.(c) in
      queues.(c) <- List.tl queues.(c);
      if c = 1 && queues.(c) = [] then
        push (Withdraw (List.nth (List.rev !chain1) withdrawn));
      if c = 1 then chain1 := !ids :: !chain1;
      push (Submit q);
      incr ids;
      go ()
  in
  go ();
  push (Insert ("F", [ vi 999; vs "Nowhere" ]));
  push Flush;
  push
    (Submit
       (Query.make ~name:"gwyneth"
          ~post:[ atom "R" [ cs "Chris"; var "x" ] ]
          ~head:[ atom "R" [ cs "Gwyneth"; var "x" ] ]
          [ atom "F" [ var "x"; cs "Zurich" ] ]));
  push
    (Submit
       (Query.make ~name:"chris" ~post:[]
          ~head:[ atom "R" [ cs "Chris"; var "y" ] ]
          [ atom "F" [ var "y"; cs "Zurich" ] ]));
  List.rev !ops

(* A store of 40 Zurich flights, enough for every chain to book its
   seats in consume mode. *)
let witness_db () =
  let db = Database.create () in
  ignore (Database.create_table' db "F" [ "fid"; "dest" ]);
  for f = 1 to 40 do
    Database.insert db "F" [ vi f; vs "Zurich" ]
  done;
  db

(* The sequence through two engines, with and without consume: the
   witness-free engine fires the same member names in the same order,
   keeps the same pool, books the same inventory and journals the same
   records as the default one.  Only the default engine's sets carry
   an assignment, and it holds to Definition 1; the other's are
   empty. *)
(* An op's answer in words: the verdict, the fired sets' member names
   in order, or the withdrawal's outcome. *)
let answer = function
  | Submitted s -> submission_repr s
  | Fired sets ->
    String.concat ";" (List.map (fun c -> String.concat "," (fired_names c)) sets)
  | Withdrew w -> string_of_bool w
  | Stored -> ""

let test_witness_free_fires_the_same () =
  let ops = witness_ops (Random.State.make [| chaos_seed |]) in
  List.iter
    (fun consume ->
      let ctx = Printf.sprintf "seed %d, consume %b" chaos_seed consume in
      let engine () =
        let db = witness_db () in
        let e = Online.create ~consume db in
        let journal = ref [] in
        Online.set_journal e (Some (fun r -> journal := r :: !journal));
        (db, e, journal)
      in
      let db, full, full_journal = engine () in
      let bare_db, bare, bare_journal = engine () in
      (* Every tuple ever inserted: a consume-mode fire deleted its own. *)
      let shadow = witness_db () in
      let fires = ref 0 in
      let pool e =
        List.map (fun (id, q) -> (id, q.Query.name)) (Online.pending_entries e)
      in
      List.iteri
        (fun i op ->
          let ctx = Printf.sprintf "%s, op %d" ctx i in
          write_store shadow op;
          let a = apply_op db full op in
          let b = apply_op ~witness:false bare_db bare op in
          Alcotest.(check string) (ctx ^ ": answer") (answer a) (answer b);
          let with_h = fired_sets a and without = fired_sets b in
          List.iter (check_fired ~ctx shadow) with_h;
          List.iter
            (fun (c : Online.coordinated) ->
              if not (Eval.Binding.is_empty c.assignment) then
                Alcotest.failf "%s: a witness-free set has an assignment" ctx)
            without;
          fires := !fires + List.length with_h;
          Alcotest.(check (list (pair int string)))
            (ctx ^ ": pending") (pool full) (pool bare);
          Alcotest.(check bool)
            (ctx ^ ": inventory") true (tables db = tables bare_db);
          Alcotest.(check bool)
            (ctx ^ ": inventory conflict") true
            (Online.last_inventory_conflict full
            = Online.last_inventory_conflict bare))
        ops;
      Alcotest.(check bool) (ctx ^ ": journals") true
        (!full_journal = !bare_journal);
      Alcotest.(check bool) (ctx ^ ": sets fired") true (!fires >= 3))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "flush skips clean components" `Quick
      test_flush_skips_clean_components;
    Alcotest.test_case "components survive deep chains" `Quick
      test_components_deep_chain;
    Alcotest.test_case "atom index keys follow the live pool" `Quick
      test_index_keys_follow_live_pool;
    Alcotest.test_case "self-loop: unsafe arrival rejected as batch" `Quick
      test_self_loop_makes_arrival_unsafe;
    Alcotest.test_case "consume: double spend reported" `Quick
      test_consume_double_spend_reported;
    Alcotest.test_case "consume: disjoint inventory clean" `Quick
      test_consume_disjoint_inventory_no_conflict;
    Alcotest.test_case "stats merge sums every field" `Quick test_stats_merge;
    Alcotest.test_case "degradation flag cleared on recovery" `Quick
      test_degradation_flag_cleared_on_recovery;
    Alcotest.test_case "quiet: cached-unsafe component still rejects" `Quick
      test_quiet_unsafe_component_still_rejects;
    Alcotest.test_case "quiet: never after a degraded evaluation" `Quick
      test_quiet_never_after_degraded;
    Alcotest.test_case "quiet: dropped by an external insert" `Quick
      test_quiet_dropped_by_external_insert;
    Alcotest.test_case "quiet: a 32-chain runs one solve" `Quick
      test_quiet_chain_runs_one_solve;
    Alcotest.test_case "handed-over graph == Coordination_graph.build"
      `Quick test_component_graph_matches_build;
    Alcotest.test_case "internal tables follow the live pool" `Quick
      test_tables_follow_live_pool;
    Alcotest.test_case "store writes: a restock re-evaluates no blocked buyer"
      `Quick test_restock_reevaluates_no_blocked_buyer;
    Alcotest.test_case "store writes: only inserts into a read table re-dirty"
      `Quick test_store_writes_redirty_only_readers;
    Alcotest.test_case "store writes: an unbound head variable reads every table"
      `Quick test_unbound_head_variable_reads_every_table;
    Alcotest.test_case "stats: only a fire is charged commit time" `Quick
      test_commit_time_charges_fires_only;
    Alcotest.test_case "witness: a witness-free engine fires the same" `Quick
      test_witness_free_fires_the_same;
  ]
