(* Reproduction harness for every experimental figure of the paper's
   Section 6 (Figures 4-8).  Each function prints the same series the
   paper plots; EXPERIMENTS.md records measured-vs-paper shapes. *)

let ms ns = Int64.to_float ns /. 1e6

let header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat "  " columns);
  Printf.printf "%s\n" (String.make (String.length (String.concat "  " columns)) '-')

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Optional CSV sink: `--csv DIR` makes every figure also write
   DIR/fig<N>.csv with the same series, for external plotting. *)
let csv_dir : string option ref = ref None

(* Emulated per-probe round-trip latency (seconds); `--probe-latency-ms`.
   With a latency in the MySQL/JDBC range, total figure times become
   probe-dominated, which is the regime the paper measured. *)
let probe_latency_s : float ref = ref 0.0

(* The series themselves live in {!Series} so `--json` can drain them
   too.  Each series gets a fresh metrics window: probe-latency
   percentiles from the evaluator's Obs histogram are attached to the
   series at finish, so BENCH json carries p50/p95/p99 per figure. *)
let csv_start name columns =
  Obs.reset_metrics ();
  Series.start name columns

let attach_probe_metrics name =
  if Obs.metrics_on () then
    match Obs.Histogram.find "eval.probe_ns" with
    | Some h when Obs.Histogram.count h > 0 ->
      let us p = Obs.Histogram.percentile h p /. 1e3 in
      Series.metric name "probes" (string_of_int (Obs.Histogram.count h));
      Series.metric name "probe_p50_us" (Printf.sprintf "%.1f" (us 0.50));
      Series.metric name "probe_p95_us" (Printf.sprintf "%.1f" (us 0.95));
      Series.metric name "probe_p99_us" (Printf.sprintf "%.1f" (us 0.99));
      Series.metric name "probe_max_us"
        (Printf.sprintf "%.1f"
           (Int64.to_float (Obs.Histogram.max_value h) /. 1e3))
    | Some _ | None -> ()

let csv_row = Series.row

(* RFC 4180 rows: comma-separated, a field with a comma, quote or line
   break double-quoted with its quotes doubled. *)
let escape_field s =
  if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let write_string rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun fields ->
      Buffer.add_string buf (String.concat "," (List.map escape_field fields));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let csv_finish name =
  attach_probe_metrics name;
  match !csv_dir with
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (write_string (Series.rows name));
    close_out oc;
    Printf.printf "(wrote %s)\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Figure 4: SCC algorithm on the list structure                      *)
(* ------------------------------------------------------------------ *)

let figure4 ?(rows = Workload.Social.slashdot_row_count)
    ?(sizes = List.init 10 (fun i -> 10 * (i + 1))) () =
  header
    (Printf.sprintf "Figure 4: list structure, table of %d rows" rows)
    [ "queries"; "total_ms"; "graph_ms"; "ground_ms"; "probes"; "solution" ];
  csv_start "fig4"
    [ "queries"; "total_ms"; "graph_ms"; "ground_ms"; "probes"; "solution" ];
  let db = Relational.Database.create () in
  Relational.Database.set_probe_latency db !probe_latency_s;
  let posts = Workload.Social.install_posts ~rows db in
  (* Warm the topic index so the first data point is not charged for the
     one-time index build. *)
  ignore
    (Relational.Relation.count_matching posts ~col:1
       (Relational.Value.str (Workload.Social.topic 0)));
  List.iter
    (fun n ->
      let rng = Prng.create (1000 + n) in
      let queries = Workload.Listgen.queries rng ~n in
      match Coordination.Scc_algo.solve db queries with
      | Error _ -> Printf.printf "%7d  UNSAFE?!\n" n
      | Ok outcome ->
        let s = outcome.stats in
        let sol =
          match outcome.solution with
          | Some sol -> Entangled.Solution.size sol
          | None -> 0
        in
        Printf.printf "%7d  %8.3f  %8.3f  %9.3f  %6d  %8d\n" n
          (ms s.total_ns) (ms s.graph_ns) (ms s.ground_ns) s.db_probes sol;
        csv_row "fig4"
          [
            string_of_int n;
            Printf.sprintf "%.3f" (ms s.total_ns);
            Printf.sprintf "%.3f" (ms s.graph_ns);
            Printf.sprintf "%.3f" (ms s.ground_ns);
            string_of_int s.db_probes;
            string_of_int sol;
          ])
    sizes;
  csv_finish "fig4"

(* ------------------------------------------------------------------ *)
(* Figure 5: SCC algorithm on scale-free networks                     *)
(* ------------------------------------------------------------------ *)

let figure5 ?(rows = Workload.Social.slashdot_row_count) ?(seeds = 10)
    ?(sizes = List.init 10 (fun i -> 10 * (i + 1))) () =
  header
    (Printf.sprintf "Figure 5: scale-free structure, avg over %d seeds" seeds)
    [ "queries"; "total_ms(avg)"; "graph_ms(avg)"; "probes(avg)"; "solution(avg)" ];
  csv_start "fig5" [ "queries"; "total_ms"; "graph_ms"; "probes"; "solution" ];
  let db = Relational.Database.create () in
  Relational.Database.set_probe_latency db !probe_latency_s;
  ignore (Workload.Social.install_posts ~rows db);
  List.iter
    (fun n ->
      let runs =
        List.init seeds (fun s ->
            let rng = Prng.create ((s * 7919) + n) in
            let g = Workload.Scale_free.generate rng ~nodes:n ~edges_per_node:2 in
            let queries = Workload.Netgen.queries_of_graph rng g in
            match Coordination.Scc_algo.solve db queries with
            | Error _ -> (0.0, 0.0, 0, 0)
            | Ok outcome ->
              ( ms outcome.stats.total_ns,
                ms outcome.stats.graph_ns,
                outcome.stats.db_probes,
                match outcome.solution with
                | Some sol -> Entangled.Solution.size sol
                | None -> 0 ))
      in
      let totals = List.map (fun (t, _, _, _) -> t) runs in
      let graphs = List.map (fun (_, g, _, _) -> g) runs in
      let probes = List.map (fun (_, _, p, _) -> float_of_int p) runs in
      let sols = List.map (fun (_, _, _, s) -> float_of_int s) runs in
      Printf.printf "%7d  %13.3f  %13.3f  %11.1f  %13.1f\n" n (mean totals)
        (mean graphs) (mean probes) (mean sols);
      csv_row "fig5"
        [
          string_of_int n;
          Printf.sprintf "%.3f" (mean totals);
          Printf.sprintf "%.3f" (mean graphs);
          Printf.sprintf "%.1f" (mean probes);
          Printf.sprintf "%.1f" (mean sols);
        ])
    sizes;
  csv_finish "fig5"

(* ------------------------------------------------------------------ *)
(* Figure 6: graph construction + preprocessing only                  *)
(* ------------------------------------------------------------------ *)

let figure6 ?(seeds = 10) ?(sizes = List.init 10 (fun i -> 100 * (i + 1))) () =
  header
    (Printf.sprintf "Figure 6: graph processing time, avg over %d seeds" seeds)
    [ "queries"; "graph_ms(avg)" ];
  csv_start "fig6" [ "queries"; "graph_ms" ];
  (* The database is irrelevant here (no grounding happens), but the
     bodies still reference Posts; a small table suffices. *)
  let db = Relational.Database.create () in
  ignore (Workload.Social.install_posts ~rows:1000 db);
  List.iter
    (fun n ->
      let runs =
        List.init seeds (fun s ->
            let rng = Prng.create ((s * 104729) + n) in
            let g = Workload.Scale_free.generate rng ~nodes:n ~edges_per_node:2 in
            let queries = Workload.Netgen.queries_of_graph rng g in
            match Coordination.Scc_algo.solve ~graph_only:true db queries with
            | Error _ -> 0.0
            | Ok outcome -> ms outcome.stats.graph_ns)
      in
      Printf.printf "%7d  %13.3f\n" n (mean runs);
      csv_row "fig6" [ string_of_int n; Printf.sprintf "%.3f" (mean runs) ])
    sizes;
  csv_finish "fig6"

(* ------------------------------------------------------------------ *)
(* Figure 7: consistent algorithm vs number of possible values        *)
(* ------------------------------------------------------------------ *)

let figure7 ?(users = 50) ?(sizes = List.init 10 (fun i -> 100 * (i + 1))) () =
  header
    (Printf.sprintf
       "Figure 7: consistent algorithm, %d queries, all-unique flights table"
       users)
    [ "values"; "total_ms"; "probes"; "members"; "cleaning_rounds" ];
  csv_start "fig7" [ "values"; "total_ms"; "probes"; "members"; "cleaning_rounds" ];
  List.iter
    (fun rows ->
      let db, queries = Workload.Flights.make_worst_case ~rows ~users in
      Relational.Database.set_probe_latency db !probe_latency_s;
      match Coordination.Consistent.solve db Workload.Flights.config queries with
      | Error _ -> Printf.printf "%6d  ERROR\n" rows
      | Ok outcome ->
        Printf.printf "%6d  %8.3f  %6d  %7d  %15d\n" rows
          (ms outcome.stats.total_ns) outcome.stats.db_probes
          (List.length outcome.members)
          outcome.stats.cleaning_rounds;
        csv_row "fig7"
          [
            string_of_int rows;
            Printf.sprintf "%.3f" (ms outcome.stats.total_ns);
            string_of_int outcome.stats.db_probes;
            string_of_int (List.length outcome.members);
            string_of_int outcome.stats.cleaning_rounds;
          ])
    sizes;
  csv_finish "fig7"

(* ------------------------------------------------------------------ *)
(* Figure 8: consistent algorithm vs number of queries                *)
(* ------------------------------------------------------------------ *)

let figure8 ?(rows = 100) ?(sizes = List.init 10 (fun i -> 10 * (i + 1))) () =
  header
    (Printf.sprintf
       "Figure 8: consistent algorithm, flights table of %d rows" rows)
    [ "queries"; "total_ms"; "probes"; "members" ];
  csv_start "fig8" [ "queries"; "total_ms"; "probes"; "members" ];
  List.iter
    (fun users ->
      let db, queries = Workload.Flights.make_worst_case ~rows ~users in
      Relational.Database.set_probe_latency db !probe_latency_s;
      match Coordination.Consistent.solve db Workload.Flights.config queries with
      | Error _ -> Printf.printf "%7d  ERROR\n" users
      | Ok outcome ->
        Printf.printf "%7d  %8.3f  %6d  %7d\n" users
          (ms outcome.stats.total_ns) outcome.stats.db_probes
          (List.length outcome.members);
        csv_row "fig8"
          [
            string_of_int users;
            Printf.sprintf "%.3f" (ms outcome.stats.total_ns);
            string_of_int outcome.stats.db_probes;
            string_of_int (List.length outcome.members);
          ])
    sizes;
  csv_finish "fig8"
