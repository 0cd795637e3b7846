(* Benchmark driver.

   With no arguments, regenerates every figure of the paper's evaluation
   (Figures 4-8), runs the ablation studies, and finishes with quick
   Bechamel micro-benchmarks.  Individual pieces:

     dune exec bench/main.exe -- --figure 4
     dune exec bench/main.exe -- --ablation preprocess
     dune exec bench/main.exe -- --bechamel
     dune exec bench/main.exe -- --fast        (reduced sizes, for CI) *)

let usage =
  "main.exe [--fast] [--figure N]... [--ablation \
   preprocess|selection|minimize|realistic|parallel|online|\
   online-scaling|parallel-scaling|observability|resilience|\
   durability|service]... \
   [--bechamel] \
   [--figures-only] [--json FILE]"

let () =
  let figures = ref [] in
  let ablations = ref [] in
  let bechamel_only = ref false in
  let figures_only = ref false in
  let fast = ref false in
  let json_path = ref None in
  let spec =
    [
      ("--figure", Arg.Int (fun n -> figures := n :: !figures),
       "N  run only figure N (4..8); repeatable");
      ("--ablation", Arg.String (fun s -> ablations := s :: !ablations),
       "NAME  run only this ablation (preprocess|selection|...)");
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
  let ran_something = ref false in
  List.iter
    (fun n ->
      ran_something := true;
      match n with
      | 4 -> if fast then Figures.figure4 ~rows:10_000 ~sizes:[ 10; 30; 50 ] () else Figures.figure4 ()
      | 5 -> if fast then Figures.figure5 ~rows:10_000 ~seeds:3 ~sizes:[ 10; 30; 50 ] () else Figures.figure5 ()
      | 6 -> if fast then Figures.figure6 ~seeds:3 ~sizes:[ 100; 300 ] () else Figures.figure6 ()
      | 7 -> if fast then Figures.figure7 ~sizes:[ 100; 300 ] () else Figures.figure7 ()
      | 8 -> if fast then Figures.figure8 ~sizes:[ 10; 30; 50 ] () else Figures.figure8 ()
      | n -> Printf.eprintf "no figure %d (the paper has figures 4-8)\n" n)
    (List.rev !figures);
  List.iter
    (fun name ->
      ran_something := true;
      match name with
      | "preprocess" ->
        if fast then Ablations.preprocess ~rows:5_000 ~n:15 ()
        else Ablations.preprocess ()
      | "selection" ->
        if fast then Ablations.selection ~rows:5_000 ~n:20 ()
        else Ablations.selection ()
      | "minimize" ->
        if fast then Ablations.minimize ~rows:5_000 ~n:12 ()
        else Ablations.minimize ()
      | "realistic" ->
        if fast then Ablations.realistic ~rows:100 ~users:20 ()
        else Ablations.realistic ()
      | "parallel" ->
        if fast then Ablations.parallel ~rows:150 ~users:40 ()
        else Ablations.parallel ()
      | "online" ->
        if fast then Ablations.online ~rows:5_000 ~n:20 ()
        else Ablations.online ()
      | "online-scaling" ->
        if fast then
          Ablations.online_scaling ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.online_scaling ()
      | "parallel-scaling" ->
        if fast then Ablations.parallel_scaling ~rows:1_000 ()
        else Ablations.parallel_scaling ()
      | "online-sharded" ->
        (* 100k pool even in fast mode: the sharded-throughput gate is
           only meaningful at the acceptance pool size. *)
        if fast then
          Ablations.online_sharded ~rows:1_000 ~pools:[ 100_000 ]
            ~domain_counts:[ 1; 2; 4 ] ()
        else Ablations.online_sharded ()
      | "observability" ->
        if fast then Ablations.observability ~rows:5_000 ~n:15 ~repeats:13 ~iters:50 ()
        else Ablations.observability ()
      | "resilience" ->
        if fast then Ablations.resilience ~rows:5_000 ~n:15 ~repeats:3 ()
        else Ablations.resilience ()
      | "durability" ->
        if fast then Ablations.durability ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.durability ()
      | "service" ->
        if fast then
          Ablations.service ~rows:1_000 ~requests:256 ~clients:[ 1; 8 ] ()
        else Ablations.service ()
      | s -> Printf.eprintf "unknown ablation %s\n" s)
    (List.rev !ablations);
  if !bechamel_only then begin
    ran_something := true;
    Micro.run_all ()
  end;
  if not !ran_something then begin
    Figures.run_all ~fast ();
    if not !figures_only then begin
      Ablations.run_all ~fast ();
      Micro.run_all ()
    end
  end;
  Option.iter Series.write_json !json_path
