(* Ablation benchmarks for the design choices DESIGN.md calls out: the
   preprocessing step of the SCC algorithm, its selection criterion,
   and the online, parallel, observability, resilience, durability and
   service layers. *)

open Relational

let ms ns = Int64.to_float ns /. 1e6

let time f =
  let x, ns = Coordination.Stats.timed f in
  (x, ms ns)

(* ------------------------- Preprocessing -------------------------- *)

(* Preprocessing is not just a speed-up: it restores applicability.
   Each user's postcondition has a second, apparent candidate head
   offered by a "ghost" query whose own postcondition is unsatisfiable.
   Without the iterative removal the set looks unsafe and the algorithm
   must refuse; with it, the ghosts disappear and coordination
   proceeds. *)
let preprocess ?(rows = 20_000) ?(n = 40) () =
  Printf.printf "\n== Ablation: SCC preprocessing (unsatisfiable posts) ==\n";
  Printf.printf
    "(chain of %d queries + %d ghost queries that make the set look unsafe)\n"
    n n;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows db);
  let rng = Prng.create 7 in
  let base = Workload.Listgen.queries rng ~n in
  let ghosts =
    List.init n (fun i ->
        Entangled.Query.make
          ~name:(Printf.sprintf "ghost%d" i)
          ~post:[ { Cq.rel = "Zz"; args = [| Term.int 1 |] } ]
          ~head:
            [
              {
                Cq.rel = "R";
                args = [| Term.const (Workload.Listgen.user i); Term.Var "g" |];
              };
            ]
          [ { Cq.rel = "Posts"; args = [| Term.Var "g"; Term.Var "t" |] } ])
  in
  let input = base @ ghosts in
  let run preprocess =
    match Coordination.Scc_algo.solve ~preprocess db input with
    | Error (Coordination.Scc_algo.Not_safe ws) ->
      Printf.sprintf "REFUSED as unsafe (%d witnesses)" (List.length ws)
    | Ok outcome ->
      Printf.sprintf "solved: size %d, %.3f ms, %d probes"
        (match outcome.solution with
        | Some s -> Entangled.Solution.size s
        | None -> 0)
        (ms outcome.stats.total_ns)
        outcome.stats.db_probes
  in
  Printf.printf "  with preprocessing:    %s\n" (run true);
  Printf.printf "  without preprocessing: %s\n" (run false)

(* --------------------------- Selection ---------------------------- *)

let selection ?(rows = 20_000) ?(n = 60) () =
  Printf.printf "\n== Ablation: selection criterion ==\n";
  Printf.printf "(chain of %d queries; Largest needs all candidates, \
                 First_found stops at the first sink)\n" n;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows db);
  let rng = Prng.create 11 in
  let input = Workload.Listgen.queries rng ~n in
  let run selection label =
    match Coordination.Scc_algo.solve ~selection db input with
    | Error _ -> ()
    | Ok outcome ->
      Printf.printf "  %-12s %10.3f ms  %4d probes  solution size %d\n" label
        (ms outcome.stats.total_ns) outcome.stats.db_probes
        (match outcome.solution with
        | Some s -> Entangled.Solution.size s
        | None -> 0)
  in
  run Coordination.Scc_algo.Largest "largest";
  run Coordination.Scc_algo.First_found "first-found"

(* --------------------------- Minimization ------------------------- *)

(* When all chain members share one topic, the combined suffix queries
   are n copies of the same atom up to variable renaming: their core is
   a single atom.  Minimization trades a homomorphism search for far
   smaller joins. *)
let minimize ?(rows = 82_168) ?(n = 30) () =
  Printf.printf "\n== Ablation: combined-query minimization (CQ cores) ==\n";
  Printf.printf
    "(chain of %d queries over one shared topic: each suffix query's core \
     is a single atom)\n"
    n;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows ~topics:1 db);
  let rng = Prng.create 21 in
  let input = Workload.Listgen.queries ~topics:1 rng ~n in
  let run minimize label =
    match Coordination.Scc_algo.solve ~minimize db input with
    | Error _ -> ()
    | Ok outcome ->
      Printf.printf "  %-18s %10.3f ms  (ground %8.3f ms, solution %d)\n" label
        (ms outcome.stats.total_ns)
        (ms outcome.stats.ground_ns)
        (match outcome.solution with
        | Some s -> Entangled.Solution.size s
        | None -> 0)
  in
  run false "as unified";
  run true "minimized cores"

(* ---------------------------- Parallel ---------------------------- *)

let parallel ?(rows = 600) ?(users = 150) () =
  Printf.printf "\n== Ablation: parallel value loop (Section 6.2 future work) ==\n";
  Printf.printf
    "(cascade instance: %d values, %d chained queries; cleaning dominates.\n\
    \ total = whole solve; loop = the parallelisable per-value phase.\n\
    \ this machine reports %d usable core(s): with a single core, extra\n\
    \ domains can only add synchronisation overhead — correctness of the\n\
    \ parallel path is what this ablation checks there)\n"
    rows users
    (Domain.recommended_domain_count ());
  let db = Relational.Database.create () in
  ignore (Workload.Flights.install_flights db ~rows);
  ignore (Workload.Flights.install_complete_friends db ~users);
  let queries = Workload.Flights.cascade_queries ~users in
  let seq =
    match Coordination.Consistent.solve db Workload.Flights.config queries with
    | Ok o -> o
    | Error _ -> failwith "sequential failed"
  in
  Printf.printf "  sequential            total %9.3f ms   loop %9.3f ms   (%d members)\n"
    (ms seq.stats.total_ns) (ms seq.stats.unify_ns)
    (List.length seq.members);
  List.iter
    (fun domains ->
      match
        Coordination.Executor.solve_consistent ~domains db Workload.Flights.config queries
      with
      | Error _ -> ()
      | Ok par ->
        Printf.printf
          "  %d domain(s)           total %9.3f ms   loop %9.3f ms   (agrees: %b)\n"
          domains (ms par.stats.total_ns) (ms par.stats.unify_ns)
          (par.chosen_value = seq.chosen_value && par.members = seq.members))
    [ 1; 2; 4; 8 ]

(* ---------------------------- Realistic --------------------------- *)

(* The paper closes Section 6.2 arguing that its two stress tests are
   "absolutely worst possible scenarios" and that "in a more realistic
   setting with a more restricted coordination instance, the algorithm
   will perform very well".  This ablation quantifies that claim: same
   table and user count, but users pin destinations/sources the way
   travellers actually do. *)
let realistic ?(rows = 500) ?(users = 50) () =
  Printf.printf "\n== Ablation: worst case vs realistic constraints (Section 6.2) ==\n";
  Printf.printf "(%d flights, %d users; realistic users pin dest/source 70%% \
                 of the time)\n" rows users;
  let run label queries db =
    match Coordination.Consistent.solve db Workload.Flights.config queries with
    | Error _ -> ()
    | Ok outcome ->
      Printf.printf
        "  %-12s %10.3f ms   %5d values examined   %3d coordinated\n" label
        (ms outcome.stats.total_ns) outcome.stats.candidates
        (List.length outcome.members)
  in
  let db_worst, worst = Workload.Flights.make_worst_case ~rows ~users in
  run "worst case" worst db_worst;
  let db_real = Database.create () in
  ignore (Workload.Flights.install_flights db_real ~rows);
  ignore (Workload.Flights.install_complete_friends db_real ~users);
  let rng = Prng.create 17 in
  let realistic_queries =
    Workload.Flights.constrained_queries rng ~users ~rows ~constrain_fraction:0.7
  in
  run "realistic" realistic_queries db_real

(* -------------------------- Observability ------------------------- *)

(* The observability layer promises near-zero cost when nothing is
   armed: every instrumentation site is one mutable-bool load and a
   branch.  Measure the same SCC solve disarmed, with metrics on, and
   with each serializing sink writing into an in-memory buffer, plus a
   direct ns/call figure for a disarmed [with_span]. *)
let observability ?(rows = 20_000) ?(n = 40) ?(repeats = 5) ?(iters = 25) () =
  Printf.printf "\n== Ablation: observability overhead (traced vs untraced) ==\n";
  Printf.printf
    "(chain of %d queries, table of %d rows; paired ratios over %d runs \
     of %d solves per variant)\n"
    n rows repeats iters;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows db);
  let rng = Prng.create 13 in
  let input = Workload.Listgen.queries rng ~n in
  let was_metrics = Obs.metrics_on () in
  Obs.set_metrics false;
  (* Warm plan cache and indexes so every variant sees the same state. *)
  ignore (Coordination.Scc_algo.solve db input);
  (* Each sample times a loop of [iters] solves: single solves on the
     CI workload are a few hundred microseconds, where scheduler jitter
     alone swamps the <5% armed-overhead budget the gate enforces.  The
     variants are sampled round-robin — every repeat visits all of them
     — so slow machine-wide drift (frequency scaling, noisy CI
     neighbours) lands on every variant instead of biasing whichever
     one happened to run last. *)
  let iter_ts = Array.make iters 0.0 in
  let sample () =
    (* Settle major-GC debt left by the previous variant (ring arrays,
       sink buffers) so each timed loop pays for its own allocation
       only. *)
    Gc.full_major ();
    (* Time each solve individually and keep the trimmed mean of the
       fastest half: scheduler preemptions and GC slices land on single
       iterations and would otherwise charge a random variant for a
       burst it did not cause.  The armed paths allocate nothing on the
       probe hot path (the alloc gate holds them to it), so discarding
       burst-hit iterations does not hide a real cost. *)
    for k = 0 to iters - 1 do
      let _, t = time (fun () -> ignore (Coordination.Scc_algo.solve db input)) in
      iter_ts.(k) <- t
    done;
    Array.sort compare iter_ts;
    let half = max 1 (iters / 2) in
    let s = ref 0.0 in
    for k = 0 to half - 1 do
      s := !s +. iter_ts.(k)
    done;
    !s /. float_of_int half
  in
  let sink_buf = Buffer.create (1 lsl 16) in
  let sink_sample mk =
    Buffer.clear sink_buf;
    Obs.with_sink (mk (Buffer.add_string sink_buf)) sample
  in
  (* label, gated by the bench gate's overhead cap, one timed sample *)
  let variants =
    [|
      ("disarmed", false, sample);
      ( "registry", true,
        fun () ->
          Obs.set_metrics true;
          Fun.protect ~finally:(fun () -> Obs.set_metrics false) sample );
      ( "flight recorder", true,
        fun () ->
          Obs.Flight_recorder.arm ();
          Fun.protect ~finally:Obs.Flight_recorder.disarm sample );
      ( "registry+recorder", true,
        fun () ->
          Obs.Flight_recorder.arm ();
          Obs.set_metrics true;
          Fun.protect
            ~finally:(fun () ->
              Obs.set_metrics false;
              Obs.Flight_recorder.disarm ())
            sample );
      ("jsonl sink", false, fun () -> sink_sample Obs.jsonl_sink);
      ("chrome sink", false, fun () -> sink_sample Obs.chrome_sink);
    |]
  in
  (* Paired measurement: on a shared box, machine-wide drift (frequency
     scaling, noisy neighbours) over the seconds the full matrix takes
     dwarfs the <5% budget the gate enforces, and no aggregate over
     independently-pooled samples — min, median — cancels it.  So each
     armed sample is divided by a fresh disarmed sample taken
     immediately before it; drift moves both ends of a pair together
     and the ratio survives.  The median of the paired ratios is what
     the gate sees. *)
  let n_var = Array.length variants in
  let vsamples = Array.init n_var (fun _ -> Array.make repeats 0.0) in
  let ratios = Array.init n_var (fun _ -> Array.make repeats 1.0) in
  for rep = 0 to repeats - 1 do
    vsamples.(0).(rep) <- sample ();
    for i = 1 to n_var - 1 do
      let _, _, sampler = variants.(i) in
      let d = sample () in
      let a = sampler () in
      vsamples.(i).(rep) <- a;
      ratios.(i).(rep) <- a /. d
    done
  done;
  let med xs =
    let s = Array.copy xs in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  (* [armed_overhead_ratio] is populated only for the always-on
     variants (registry, flight recorder, both): those are the
     configurations the layer promises to keep under 5%, and the bench
     gate enforces that cap on this column's median.  The serializing
     sinks are debugging tools, priced separately under [vs_disarmed]
     only. *)
  Series.start "ablation_observability"
    [ "variant"; "time_ms"; "vs_disarmed"; "armed_overhead_ratio" ];
  Array.iteri
    (fun i (label, gated, _) ->
      let t = med vsamples.(i) in
      let r = if i = 0 then 1.0 else med ratios.(i) in
      Printf.printf "  %-18s %10.3f ms   (%+.1f%% vs disarmed)\n" label t
        ((r -. 1.0) *. 100.0);
      let ratio = Printf.sprintf "%.3f" r in
      Series.row "ablation_observability"
        [ label; Printf.sprintf "%.3f" t; ratio; (if gated then ratio else "") ])
    variants;
  (* Disarmed with_span, measured directly: the per-site cost the rest
     of the engine pays everywhere. *)
  let calls = 10_000_000 in
  let _, span_ms =
    time (fun () ->
        for _ = 1 to calls do
          Obs.with_span "noop" (fun () -> ()) |> Sys.opaque_identity
        done)
  in
  let ns_per_call = span_ms *. 1e6 /. float_of_int calls in
  Printf.printf "  disarmed with_span      %10.2f ns/call\n" ns_per_call;
  Series.row "ablation_observability"
    [ "with_span ns/call"; Printf.sprintf "%.2f" ns_per_call; ""; "" ];
  Obs.set_metrics was_metrics

(* --------------------------- Resilience --------------------------- *)

(* The resilience layer promises the same near-zero disarmed cost as
   Obs: an unguarded probe pays one option load and a branch.  Measure
   the same SCC solve with no guard, with an armed-but-idle guard (no
   limits, no faults — the pure middleware toll), and under seeded chaos
   with enough retry budget that the answer is unchanged. *)
let resilience ?(rows = 20_000) ?(n = 40) ?(repeats = 5) () =
  Printf.printf "\n== Ablation: resilience guard (disarmed vs armed vs chaos) ==\n";
  Printf.printf
    "(chain of %d queries, table of %d rows; best of %d runs per variant)\n"
    n rows repeats;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows db);
  let rng = Prng.create 29 in
  let input = Workload.Listgen.queries rng ~n in
  (* Warm plan cache and indexes so every variant sees the same state. *)
  ignore (Coordination.Scc_algo.solve db input);
  let measure () =
    let best = ref infinity in
    for _ = 1 to repeats do
      let _, t = time (fun () -> ignore (Coordination.Scc_algo.solve db input)) in
      if t < !best then best := t
    done;
    !best
  in
  Series.start "ablation_resilience"
    [ "variant"; "time_ms"; "vs_baseline"; "attempts"; "retries" ];
  let report label t base usage =
    let attempts, retries =
      match usage with
      | None -> (0, 0)
      | Some u -> (u.Resilient.attempts, u.Resilient.retries)
    in
    Printf.printf
      "  %-18s %10.3f ms   (%+.1f%% vs no guard)   %6d attempts  %5d retries\n"
      label t
      ((t -. base) /. base *. 100.0)
      attempts retries;
    Series.row "ablation_resilience"
      [
        label;
        Printf.sprintf "%.3f" t;
        Printf.sprintf "%.3f" (t /. base);
        string_of_int attempts;
        string_of_int retries;
      ]
  in
  Database.set_guard db None;
  let base = measure () in
  report "no guard" base base None;
  let idle = Resilient.arm Resilient.default_config in
  Database.set_guard db (Some idle);
  let t_idle = measure () in
  report "armed, idle" t_idle base (Some (Resilient.usage idle));
  let chaos =
    Resilient.arm
      {
        Resilient.default_config with
        max_attempts = 1000;
        faults =
          Some
            {
              Resilient.fault_defaults with
              fault_seed = 1;
              transient_rate = 0.2;
            };
      }
  in
  Database.set_guard db (Some chaos);
  let t_chaos = measure () in
  report "chaos 20%" t_chaos base (Some (Resilient.usage chaos));
  Database.set_guard db None

(* ----------------------------- Online ----------------------------- *)

let online ?(rows = 20_000) ?(n = 60) () =
  Printf.printf "\n== Ablation: online vs batch evaluation ==\n";
  Printf.printf
    "(%d chain queries streamed head-first: everything pends until the \
     post-free tail arrives and the whole chain fires at once)\n"
    n;
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows db);
  let rng = Prng.create 3 in
  let queries = Workload.Listgen.queries rng ~n in
  (* Batch: one evaluation over the whole set. *)
  let (), batch_ms =
    time (fun () -> ignore (Coordination.Scc_algo.solve db queries))
  in
  Printf.printf "  batch (one solve):      %10.3f ms\n" batch_ms;
  let engine = Coordination.Online.create db in
  let fired = ref 0 in
  let (), online_ms =
    time (fun () ->
        List.iter
          (fun q ->
            match Coordination.Online.submit engine q with
            | Coordination.Online.Coordinated c ->
              fired := !fired + List.length c.Coordination.Online.queries
            | Coordination.Online.Pending
            | Coordination.Online.Rejected_unsafe _ -> ())
          queries)
  in
  Printf.printf
    "  online (%3d submits):   %10.3f ms   (%d queries satisfied, %d pending)\n"
    n online_ms !fired
    (Coordination.Online.pending_count engine)

(* Pool-growth scaling: a stream of mutually independent queries — each
   one's postcondition names a partner that never arrives, so nothing
   ever fires and the pool only grows.  Per-submit latency then isolates
   the engine's own maintenance cost: each submission probes the
   persistent atom index and touches one union-find entry, so latency
   should stay flat as the pool grows. *)
let online_scaling ?(rows = 2_000) ?(pools = [ 1_000; 10_000 ]) () =
  Printf.printf "\n== Ablation: online engine scaling ==\n";
  Printf.printf
    "(independent queries streamed eagerly: nothing fires, the pool only \
     grows; per-submit latency isolates engine maintenance)\n";
  Series.start "ablation_online_scaling"
    [ "pool"; "p50_us"; "p95_us"; "total_ms" ];
  let topics = 50 in
  let query i =
    let const fmt j = Term.Const (Value.Str (Printf.sprintf fmt j)) in
    Entangled.Query.make
      ~name:(Printf.sprintf "s%d" i)
      ~post:[ { Cq.rel = "R"; args = [| const "p%d" i; Term.Var "y" |] } ]
      ~head:[ { Cq.rel = "R"; args = [| const "u%d" i; Term.Var "x" |] } ]
      [
        {
          Cq.rel = "Posts";
          args =
            [|
              Term.Var "x";
              Term.Const (Value.Str (Workload.Social.topic (i mod topics)));
            |];
        };
      ]
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))
  in
  List.iter
    (fun n ->
      let db = Database.create () in
      ignore (Workload.Social.install_posts ~rows ~topics db);
      let engine = Coordination.Online.create db in
      let lat = Array.make (max n 1) 0.0 in
      let t0 = Coordination.Stats.now_ns () in
      for i = 0 to n - 1 do
        let s0 = Coordination.Stats.now_ns () in
        ignore (Coordination.Online.submit engine (query i));
        lat.(i) <-
          Int64.to_float (Int64.sub (Coordination.Stats.now_ns ()) s0) /. 1e3
      done;
      let total = ms (Int64.sub (Coordination.Stats.now_ns ()) t0) in
      Array.sort compare lat;
      let p50 = percentile lat 0.5 and p95 = percentile lat 0.95 in
      Printf.printf
        "  pool %6d:  p50 %8.2f us   p95 %8.2f us   total %10.3f ms   (%d \
         pending)\n"
        n p50 p95 total
        (Coordination.Online.pending_count engine);
      Series.row "ablation_online_scaling"
        [
          string_of_int n;
          Printf.sprintf "%.2f" p50;
          Printf.sprintf "%.2f" p95;
          Printf.sprintf "%.3f" total;
        ])
    pools

(* ------------------------- Parallel scaling ----------------------- *)

(* The component-sharded batch executor, under the paper's client-server
   regime: every probe pays an emulated round trip (a true blocking
   sleep), so independent components on different domains overlap their
   waits even on a single core — exactly the headroom the executor is
   built to exploit.  Each run re-solves the same pairgen batch and is
   checked against the 1-domain answer. *)
let parallel_scaling ?(rows = 2_000) ?(pools = [ 1_000; 10_000 ])
    ?(probe_latency = 0.0002) () =
  Printf.printf "\n== Ablation: component-sharded executor scaling ==\n";
  Printf.printf
    "(independent coordination pairs, %.1f ms emulated round trip per \
     probe;\n\
    \ pool = query count, one 2-query component per pair; speedup is \
     against\n\
    \ the 1-domain run of the same pool)\n"
    (probe_latency *. 1e3);
  Series.start "ablation_parallel_scaling"
    [ "domains"; "pool"; "candidates"; "total_ms"; "speedup" ];
  List.iter
    (fun pool ->
      let pairs = pool / 2 in
      let baseline = ref None in
      let reference = ref None in
      List.iter
        (fun domains ->
          let db, queries = Workload.Pairgen.make ~rows ~seed:11 pairs in
          Database.set_probe_latency db probe_latency;
          match Coordination.Executor.solve_scc ~domains db queries with
          | Error _ -> failwith "parallel_scaling: unsafe workload?"
          | Ok outcome ->
            let total = ms outcome.stats.total_ns in
            let members =
              match outcome.solution with
              | Some s -> s.Entangled.Solution.members
              | None -> []
            in
            (match !reference with
            | None -> reference := Some (outcome.stats.candidates, members)
            | Some (c, m) ->
              if c <> outcome.stats.candidates || m <> members then
                Printf.printf "  !! domains=%d disagrees with 1-domain run\n"
                  domains);
            let speedup =
              match !baseline with
              | None ->
                baseline := Some total;
                1.0
              | Some b -> b /. total
            in
            Printf.printf
              "  %d domain(s)   pool %6d:  total %10.3f ms   speedup \
               %5.2fx   (%d candidates)\n"
              domains pool total speedup outcome.stats.candidates;
            Series.row "ablation_parallel_scaling"
              [
                string_of_int domains;
                string_of_int pool;
                string_of_int outcome.stats.candidates;
                Printf.sprintf "%.3f" total;
                Printf.sprintf "%.2f" speedup;
              ])
        [ 1; 2; 4; 8 ])
    pools

(* ------------------------- Sharded online ------------------------- *)

(* The domain-sharded ONLINE engine under the same client-server regime
   as [parallel_scaling]: every probe pays an emulated blocking round
   trip, so per-shard flushes overlap their waits across domains even
   on one core.  The stream is pairgen reordered all-firsts-then-all-
   seconds — the pending pool peaks at pool/2 entries before any pair
   can fire, so routing, migration bookkeeping and flush all run at
   full pool size.  Submissions go through [submit_all] in batches (the
   service regime: a server drains a socket backlog per round).

   Two series feed the gate:
   - [ablation_online_sharded]: the (domains x pool) grid with
     amortized per-submit p50/p95, total wall time and throughput.
   - [ablation_online_sharded_gate]: one row per pool carrying
     [sharded_submit_speedup], the 4-domain/1-domain aggregate submit
     throughput ratio.  The bench gate holds it above 2.5x at 100k
     pool. *)
let online_sharded ?(rows = 2_000) ?(pools = [ 100_000; 300_000 ])
    ?(domain_counts = [ 1; 2; 4; 8 ]) ?(probe_latency = 0.0001)
    ?(batch = 1_024) () =
  Printf.printf "\n== Ablation: domain-sharded online engine ==\n";
  Printf.printf
    "(independent coordination pairs streamed firsts-then-seconds in \
     batches of %d,\n\
    \ %.2f ms emulated round trip per probe; pool = total submissions, \
     pending\n\
    \ peaks at pool/2; speedup is against the 1-domain run of the same \
     pool)\n"
    batch (probe_latency *. 1e3);
  Series.start "ablation_online_sharded"
    [
      (* total_wall carries no unit suffix on purpose: it is wall time
         dominated by emulated probe sleeps, too load-sensitive for the
         gate's timing tolerance — the gated signal is the speedup
         ratio in ablation_online_sharded_gate. *)
      "domains"; "pool"; "migrations"; "p50_us"; "p95_us"; "total_wall";
      "throughput_per_s";
    ];
  Series.start "ablation_online_sharded_gate"
    [ "pool"; "sharded_submit_speedup" ];
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))
  in
  let rec chunks n = function
    | [] -> []
    | l ->
      let rec take k acc rest =
        match rest with
        | [] -> (List.rev acc, [])
        | _ when k = 0 -> (List.rev acc, rest)
        | x :: tl -> take (k - 1) (x :: acc) tl
      in
      let c, rest = take n [] l in
      c :: chunks n rest
  in
  List.iter
    (fun pool ->
      let pairs = pool / 2 in
      let baseline = ref None in
      let reference = ref None in
      let gate_speedup = ref None in
      List.iter
        (fun domains ->
          let db, queries = Workload.Pairgen.make ~rows ~seed:11 pairs in
          (* All pair-firsts, then all pair-seconds: nothing fires
             until the second phase, so the pool peaks at [pairs]. *)
          let firsts, seconds =
            List.partition
              (fun q -> q.Entangled.Query.name.[0] = 'a')
              queries
          in
          Database.set_probe_latency db probe_latency;
          let engine = Coordination.Online_sharded.create ~domains db in
          let samples = ref [] in
          let t0 = Coordination.Stats.now_ns () in
          List.iter
            (fun qs ->
              let s0 = Coordination.Stats.now_ns () in
              ignore (Coordination.Online_sharded.submit_all engine qs);
              let per_submit_us =
                Int64.to_float
                  (Int64.sub (Coordination.Stats.now_ns ()) s0)
                /. 1e3
                /. float_of_int (List.length qs)
              in
              samples := per_submit_us :: !samples)
            (chunks batch firsts @ chunks batch seconds);
          ignore (Coordination.Online_sharded.flush engine);
          let total = ms (Int64.sub (Coordination.Stats.now_ns ()) t0) in
          let satisfied =
            Coordination.Online_sharded.total_coordinated engine
          in
          let pending = Coordination.Online_sharded.pending_count engine in
          (match !reference with
          | None -> reference := Some (satisfied, pending)
          | Some (s, p) ->
            if s <> satisfied || p <> pending then
              Printf.printf "  !! domains=%d disagrees with 1-domain run\n"
                domains);
          let speedup =
            match !baseline with
            | None ->
              baseline := Some total;
              1.0
            | Some b -> b /. total
          in
          if domains = 4 then gate_speedup := Some speedup;
          let lat = Array.of_list !samples in
          Array.sort compare lat;
          let p50 = percentile lat 0.5 and p95 = percentile lat 0.95 in
          let throughput = float_of_int pool /. (total /. 1e3) in
          let migrations =
            Coordination.Online_sharded.migrations engine
          in
          Printf.printf
            "  %d domain(s)   pool %7d:  p50 %8.2f us   p95 %8.2f us   \
             total %10.3f ms   %9.0f submits/s   speedup %5.2fx   (%d \
             coordinated, %d migrations)\n"
            domains pool p50 p95 total throughput speedup satisfied
            migrations;
          Series.row "ablation_online_sharded"
            [
              string_of_int domains;
              string_of_int pool;
              string_of_int migrations;
              Printf.sprintf "%.2f" p50;
              Printf.sprintf "%.2f" p95;
              Printf.sprintf "%.3f" total;
              Printf.sprintf "%.0f" throughput;
            ])
        domain_counts;
      match !gate_speedup with
      | None -> ()
      | Some s ->
        Series.row "ablation_online_sharded_gate"
          [ string_of_int pool; Printf.sprintf "%.2f" s ])
    pools

(* ------------------------------ Durability ------------------------ *)

(* The price of the write-ahead log: the online_scaling pool-growth
   stream (independent queries, nothing fires, per-submit latency
   isolates maintenance cost) run against the durable engine under
   each fsync policy.  Snapshots are disabled so the measurement is
   pure journaling.  The committed acceptance number is the
   page-cache-bound ratio wal-nofsync / no-wal, emitted as its own
   series for the bench gate to cap — only for pools large enough to
   amortize first-submit warmup (small-pool ratios are plan-cache
   noise).  A fsync-bound variant's cost belongs to the disk, not to
   the engine, so wal-fsync is reported but not gated. *)
let durability ?(rows = 2_000) ?(pools = [ 500; 2_000 ]) () =
  Printf.printf "\n== Ablation: durability (WAL append + fsync policy) ==\n";
  Printf.printf
    "(pool-growth submit stream; wal variants journal every admission; \
     snapshots off)\n";
  Series.start "ablation_durability"
    [ "variant"; "pool"; "p50_us"; "p95_us"; "total_ms" ];
  Series.start "ablation_durability_overhead"
    [ "pool"; "nofsync_wal_overhead_x" ];
  let topics = 50 in
  let query i =
    let const fmt j = Term.Const (Value.Str (Printf.sprintf fmt j)) in
    Entangled.Query.make
      ~name:(Printf.sprintf "s%d" i)
      ~post:[ { Cq.rel = "R"; args = [| const "p%d" i; Term.Var "y" |] } ]
      ~head:[ { Cq.rel = "R"; args = [| const "u%d" i; Term.Var "x" |] } ]
      [
        {
          Cq.rel = "Posts";
          args =
            [|
              Term.Var "x";
              Term.Const (Value.Str (Workload.Social.topic (i mod topics)));
            |];
        };
      ]
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))
  in
  let wal_dir =
    let k = ref 0 in
    fun () ->
      incr k;
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "entangle-bench-wal-%d-%d" (Unix.getpid ()) !k)
  in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
  in
  List.iter
    (fun n ->
      let baseline_total = ref 0.0 in
      List.iter
        (fun (label, wal) ->
          let db, engine, cleanup =
            match wal with
            | None ->
              let db = Database.create () in
              (db, Coordination.Online.create db, fun () -> ())
            | Some fsync ->
              let dir = wal_dir () in
              let t, db, engine =
                Durable.create_engine
                  (Durable.config ~fsync ~snapshot_every:0 dir)
              in
              ( db,
                engine,
                fun () ->
                  Durable.close t;
                  rm_rf dir )
          in
          ignore (Workload.Social.install_posts ~rows ~topics db);
          let lat = Array.make (max n 1) 0.0 in
          let t0 = Coordination.Stats.now_ns () in
          for i = 0 to n - 1 do
            let s0 = Coordination.Stats.now_ns () in
            ignore (Coordination.Online.submit engine (query i));
            lat.(i) <-
              Int64.to_float (Int64.sub (Coordination.Stats.now_ns ()) s0)
              /. 1e3
          done;
          let total = ms (Int64.sub (Coordination.Stats.now_ns ()) t0) in
          cleanup ();
          Array.sort compare lat;
          let p50 = percentile lat 0.5 and p95 = percentile lat 0.95 in
          Printf.printf
            "  %-13s pool %6d:  p50 %8.2f us   p95 %8.2f us   total \
             %10.3f ms\n"
            label n p50 p95 total;
          Series.row "ablation_durability"
            [
              label;
              string_of_int n;
              Printf.sprintf "%.2f" p50;
              Printf.sprintf "%.2f" p95;
              Printf.sprintf "%.3f" total;
            ];
          if label = "no-wal" then baseline_total := total
          else if label = "wal-nofsync" && !baseline_total > 0.0 && n >= 1_000
          then begin
            let ratio = total /. !baseline_total in
            Printf.printf "  %-13s pool %6d:  %.2fx the no-wal run\n"
              "(overhead)" n ratio;
            Series.row "ablation_durability_overhead"
              [ string_of_int n; Printf.sprintf "%.3f" ratio ]
          end)
        [
          ("no-wal", None);
          ("wal-nofsync", Some Durable.Never);
          ("wal-group-64", Some (Durable.Every_n 64));
          ("wal-fsync", Some Durable.Always);
        ])
    pools

(* ------------------------------ Service --------------------------- *)

(* The price of the wire: the durability ablation's independent-query
   submit stream, re-run through `entangle serve`'s frame protocol —
   JSON encode, length-prefixed frame, socket round trip, JSON decode —
   with the requests fanned in from 1, 8 or 64 concurrent sessions.
   Server and clients share one thread (the server's step loop is
   public), so the latency numbers include the full protocol path but
   no scheduler handoff; what the fan-in axis isolates is the cost of
   session multiplexing itself.  The committed acceptance number is the
   ratio wal-nofsync / no-wal of total service time — the service-layer
   analogue of the durability gate, capped loosely because it stacks
   journaling on top of protocol cost.  The raw columns are
   deliberately kept out of the gate's timing families (percentiles
   sit under the microsecond noise floor; the wall total is unsuffixed)
   — socket syscall wall clock swings well past the gate's tolerance
   run to run, and the portable number is the ratio. *)
let service ?(rows = 2_000) ?(requests = 512) ?(clients = [ 1; 8; 64 ]) () =
  Printf.printf "\n== Ablation: service (frame protocol, session fan-in) ==\n";
  Printf.printf
    "(independent submit stream over the socket; %d requests round-robined \
     across the sessions; wal variant journals every admission)\n"
    requests;
  Series.start "ablation_service"
    [
      "variant"; "clients"; "requests"; "p50_us"; "p95_us"; "p99_us";
      "total_wall";
    ];
  Series.start "ablation_service_overhead"
    [ "clients"; "nofsync_service_overhead_x" ];
  let topics = 50 in
  let query_src i =
    let const fmt j = Term.Const (Value.Str (Printf.sprintf fmt j)) in
    Entangled.Parser.query_to_string
      (Entangled.Query.make
         ~name:(Printf.sprintf "s%d" i)
         ~post:[ { Cq.rel = "R"; args = [| const "p%d" i; Term.Var "y" |] } ]
         ~head:[ { Cq.rel = "R"; args = [| const "u%d" i; Term.Var "x" |] } ]
         [
           {
             Cq.rel = "Posts";
             args =
               [|
                 Term.Var "x";
                 Term.Const (Value.Str (Workload.Social.topic (i mod topics)));
               |];
           };
         ])
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))
  in
  let wal_dir =
    let k = ref 0 in
    fun () ->
      incr k;
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "entangle-bench-srv-%d-%d" (Unix.getpid ()) !k)
  in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
  in
  List.iter
    (fun nclients ->
      let baseline_total = ref 0.0 in
      List.iter
        (fun (label, wal) ->
          let db, engine, durable, cleanup =
            match wal with
            | None ->
              let db = Database.create () in
              (db, Coordination.Online.create db, None, fun () -> ())
            | Some fsync ->
              let dir = wal_dir () in
              let t, db, engine =
                Durable.create_engine
                  (Durable.config ~fsync ~snapshot_every:0 dir)
              in
              ( db,
                engine,
                Some t,
                fun () ->
                  Durable.close t;
                  rm_rf dir )
          in
          ignore (Workload.Social.install_posts ~rows ~topics db);
          let cfg =
            {
              (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
              Server.max_pending = requests + 1;
            }
          in
          let srv =
            Server.create cfg
              { Server.db; engine = Server.Sequential engine; durable; guard = None }
          in
          let conns =
            Array.init nclients (fun _ ->
                Server.Client.connect
                  (Server.Tcp ("127.0.0.1", Server.port srv)))
          in
          let lat = Array.make (max requests 1) 0.0 in
          let t0 = Coordination.Stats.now_ns () in
          for i = 0 to requests - 1 do
            let conn = conns.(i mod nclients) in
            let s0 = Coordination.Stats.now_ns () in
            Server.Client.send conn
              (Json.Obj
                 [
                   ("id", Json.Int i);
                   ("op", Json.Str "submit");
                   ("query", Json.Str (query_src i));
                 ]);
            let rec await () =
              match Server.Client.try_recv conn with
              | Some f when Json.str_mem "notify" f = None -> f
              | Some _ -> await ()
              | None ->
                ignore (Server.step ~timeout:0.01 srv);
                await ()
            in
            ignore (await ());
            lat.(i) <-
              Int64.to_float (Int64.sub (Coordination.Stats.now_ns ()) s0)
              /. 1e3
          done;
          let total = ms (Int64.sub (Coordination.Stats.now_ns ()) t0) in
          Array.iter Server.Client.close conns;
          for _ = 1 to 3 do
            ignore (Server.step ~timeout:0.0 srv)
          done;
          Server.stop srv;
          cleanup ();
          Array.sort compare lat;
          let p50 = percentile lat 0.5
          and p95 = percentile lat 0.95
          and p99 = percentile lat 0.99 in
          Printf.printf
            "  %-13s %3d clients:  p50 %8.2f us   p95 %8.2f us   p99 \
             %8.2f us   total %10.3f ms\n"
            label nclients p50 p95 p99 total;
          Series.row "ablation_service"
            [
              label;
              string_of_int nclients;
              string_of_int requests;
              Printf.sprintf "%.2f" p50;
              Printf.sprintf "%.2f" p95;
              Printf.sprintf "%.2f" p99;
              Printf.sprintf "%.3f" total;
            ];
          if label = "no-wal" then baseline_total := total
          else if label = "wal-nofsync" && !baseline_total > 0.0 then begin
            let ratio = total /. !baseline_total in
            Printf.printf "  %-13s %3d clients:  %.2fx the no-wal run\n"
              "(overhead)" nclients ratio;
            Series.row "ablation_service_overhead"
              [ string_of_int nclients; Printf.sprintf "%.3f" ratio ]
          end)
        [ ("no-wal", None); ("wal-nofsync", Some Durable.Never) ])
    clients

let run_all ?(fast = false) () =
  if fast then begin
    preprocess ~rows:5_000 ~n:15 ();
    selection ~rows:5_000 ~n:20 ();
    minimize ~rows:5_000 ~n:12 ();
    realistic ~rows:100 ~users:20 ();
    parallel ~rows:150 ~users:40 ();
    online ~rows:5_000 ~n:20 ();
    online_scaling ~rows:1_000 ~pools:[ 200; 1_000 ] ();
    parallel_scaling ~rows:1_000 ();
    observability ~rows:5_000 ~n:15 ~repeats:3 ();
    resilience ~rows:5_000 ~n:15 ~repeats:3 ();
    durability ~rows:1_000 ~pools:[ 200; 1_000 ] ();
    service ~rows:1_000 ~requests:256 ~clients:[ 1; 8 ] ()
  end
  else begin
    preprocess ();
    selection ();
    minimize ();
    realistic ();
    parallel ();
    online ();
    online_scaling ();
    parallel_scaling ();
    observability ();
    resilience ();
    durability ();
    service ()
  end
