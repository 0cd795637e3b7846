(* Ablation benchmarks for the design choices DESIGN.md calls out: the
   preprocessing step of the SCC algorithm, its selection criterion,
   and the online and observability layers.  What a served
   request costs end to end is perfbench's question (BENCHMARK.json),
   not this file's. *)

open Relational

let ms ns = Int64.to_float ns /. 1e6

let time f =
  let t0 = Obs.now_ns () in
  let x = f () in
  (x, ms (Int64.sub (Obs.now_ns ()) t0))

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
