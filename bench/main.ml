(* Benchmark driver.

   With no arguments, regenerates every figure of the paper's evaluation
   (Figures 4-8), runs the ablation studies, and finishes with quick
   Bechamel micro-benchmarks.  Individual pieces:

     dune exec bench/main.exe -- --figure 4
     dune exec bench/main.exe -- --ablation preprocess
     dune exec bench/main.exe -- --bechamel
     dune exec bench/main.exe -- --fast        (reduced sizes, for CI) *)

(* Every ablation by its [--ablation] name, in run order, with its
   [--fast] and full-size runs. *)
let ablations =
  [
    ( "preprocess",
      fun fast ->
        if fast then Ablations.preprocess ~rows:5_000 ~n:15 ()
        else Ablations.preprocess () );
    ( "selection",
      fun fast ->
        if fast then Ablations.selection ~rows:5_000 ~n:20 ()
        else Ablations.selection () );
    ( "minimize",
      fun fast ->
        if fast then Ablations.minimize ~rows:5_000 ~n:12 ()
        else Ablations.minimize () );
    ( "realistic",
      fun fast ->
        if fast then Ablations.realistic ~rows:100 ~users:20 ()
        else Ablations.realistic () );
    ( "parallel",
      fun fast ->
        if fast then Ablations.parallel ~rows:150 ~users:40 ()
        else Ablations.parallel () );
    ( "online",
      fun fast ->
        if fast then Ablations.online ~rows:5_000 ~n:20 ()
        else Ablations.online () );
    ( "online-scaling",
      fun fast ->
        if fast then
          Ablations.online_scaling ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.online_scaling () );
    ( "parallel-scaling",
      fun fast ->
        if fast then Ablations.parallel_scaling ~rows:1_000 ()
        else Ablations.parallel_scaling () );
    ( "observability",
      fun fast ->
        if fast then
          Ablations.observability ~rows:5_000 ~n:15 ~repeats:13 ~iters:50 ()
        else Ablations.observability () );
    ( "resilience",
      fun fast ->
        if fast then Ablations.resilience ~rows:5_000 ~n:15 ~repeats:3 ()
        else Ablations.resilience () );
    ( "durability",
      fun fast ->
        if fast then Ablations.durability ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.durability () );
    ( "service",
      fun fast ->
        if fast then
          Ablations.service ~rows:1_000 ~requests:256 ~clients:[ 1; 8 ] ()
        else Ablations.service () );
  ]

let figures =
  [
    ( 4,
      fun fast ->
        if fast then Figures.figure4 ~rows:10_000 ~sizes:[ 10; 30; 50 ] ()
        else Figures.figure4 () );
    ( 5,
      fun fast ->
        if fast then
          Figures.figure5 ~rows:10_000 ~seeds:3 ~sizes:[ 10; 30; 50 ] ()
        else Figures.figure5 () );
    ( 6,
      fun fast ->
        if fast then Figures.figure6 ~seeds:3 ~sizes:[ 100; 300 ] ()
        else Figures.figure6 () );
    ( 7,
      fun fast ->
        if fast then Figures.figure7 ~sizes:[ 100; 300 ] ()
        else Figures.figure7 () );
    ( 8,
      fun fast ->
        if fast then Figures.figure8 ~sizes:[ 10; 30; 50 ] ()
        else Figures.figure8 () );
  ]

let usage =
  "main.exe [--fast] [--figure N]... [--ablation NAME]... [--bechamel] \
   [--figures-only] [--json FILE]"

(* Names are checked as they are parsed, so a stale name fails the run
   (usage on stderr, exit 2) before anything is measured. *)
let () =
  let chosen_figures = ref [] in
  let chosen_ablations = ref [] in
  let bechamel_only = ref false in
  let figures_only = ref false in
  let fast = ref false in
  let json_path = ref None in
  let spec =
    [
      ("--figure",
       Arg.Int
         (fun n ->
           match List.assoc_opt n figures with
           | Some run -> chosen_figures := run :: !chosen_figures
           | None ->
             raise
               (Arg.Bad
                  (Printf.sprintf "no figure %d (the paper has figures 4-8)"
                     n))),
       "N  run only figure N (4..8); repeatable");
      ("--ablation",
       Arg.Symbol
         ( List.map fst ablations,
           fun name ->
             chosen_ablations := List.assoc name ablations :: !chosen_ablations
         ),
       "  run only this ablation; repeatable");
      ("--bechamel", Arg.Set bechamel_only, " run only the micro-benchmarks");
      ("--figures-only", Arg.Set figures_only, " skip ablations and bechamel");
      ("--fast", Arg.Set fast, " reduced sizes (CI-friendly)");
      ("--csv", Arg.String (fun d -> Figures.csv_dir := Some d),
       "DIR  also write each figure's series to DIR/fig<N>.csv");
      ("--json", Arg.String (fun f -> json_path := Some f),
       "FILE  write every figure/ablation series run as one JSON file");
      ("--probe-latency-ms",
       Arg.Float (fun x -> Figures.probe_latency_s := x /. 1000.0),
       "MS  emulate a per-probe client-server round trip of MS \
        milliseconds (the paper's MySQL/JDBC regime)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* Metrics stay on for the whole run: the histograms feed each
     figure's probe-latency percentiles in `--json` output.  The
     `observability` ablation toggles this itself to measure overhead. *)
  Obs.set_metrics true;
  let fast = !fast in
  let chosen = List.rev_append !chosen_figures (List.rev !chosen_ablations) in
  List.iter (fun run -> run fast) chosen;
  if !bechamel_only then Micro.run_all ();
  if List.is_empty chosen && not !bechamel_only then begin
    Figures.run_all ~fast ();
    if not !figures_only then begin
      List.iter (fun (_, run) -> run fast) ablations;
      Micro.run_all ()
    end
  end;
  Option.iter Series.write_json !json_path
