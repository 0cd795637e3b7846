(* Bench regression gate.  It reads one of two input forms, told apart
   by the content of the baseline file.

   Series form: a fresh `entangle-bench --json` dump against the
   committed baseline (BENCH_eval.json).  Every column whose name ends
   with "overhead_ratio" is judged by its median over the series' rows:
   fail when the fresh median exceeds the 1.05 cap.  Such a column is
   armed-vs-disarmed telemetry overhead, a ratio of two same-machine
   timings, which ports across hardware where raw timings do not; the
   cap is the observability layer's <5% promise.  Other columns are not
   gated.

   Perfbench A/B form: each file holds the last stdout line of several
   `perfbench/run.py --trace 0` runs, one JSON object a line — the
   baseline file the parent's runs, the fresh file the change's,
   alternated run by run (bench/perf_ab.sh makes them, and runs the
   gate in the parent's checkout).  Every `end_to_end` metric of
   BENCHMARK.json in the working directory is judged by its median over
   each side's runs, under that metric's own `better` direction and
   `bound`: fail when the change's median is worse than the parent's by
   more than the bound.  The gate also fails when any run is not
   `correct`; run.py marks a run with failed operations not correct, so
   this also keeps the failed share at 0.

     gate.exe --baseline BENCH_eval.json --fresh bench.json
     gate.exe --baseline parent.jsonl --fresh change.jsonl *)

(* ------------------------- Series access -------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load path =
  match Json.parse (read_file path) with
  | Ok (Json.Obj series) -> series
  | Ok _ -> failwith (path ^ ": top level is not an object")
  | Error why -> failwith (path ^ ": " ^ why)

let columns_of series =
  match Json.mem "columns" series with
  | Some (Json.Arr cs) -> List.map (function Json.Str s -> s | _ -> "") cs
  | _ -> []

let rows_of series =
  match Json.mem "rows" series with
  | Some (Json.Arr rows) -> List.map (function Json.Arr r -> r | _ -> []) rows
  | _ -> []

let median xs =
  match List.sort compare xs with
  | [] -> None
  | sorted -> Some (List.nth sorted (List.length sorted / 2))

let column_median series name =
  let columns = columns_of series in
  let idx = ref (-1) in
  List.iteri (fun i c -> if c = name then idx := i) columns;
  if !idx < 0 then None
  else
    rows_of series
    |> List.filter_map (fun row ->
           Option.bind (List.nth_opt row !idx) Json.number)
    |> median

let cap_suffix = "overhead_ratio"
let cap = 1.05

(* The failures of a series-form comparison; prints every checked
   column on the way. *)
let gate_series ~baseline_path ~fresh_path =
  let baseline = load baseline_path and fresh = load fresh_path in
  let failures = ref [] in
  let checked = ref 0 in
  let check name base_series fresh_series col =
    if String.ends_with ~suffix:cap_suffix col then
      match (column_median base_series col, column_median fresh_series col) with
      | Some b, Some f ->
        incr checked;
        Printf.printf "  %-32s %-30s base %12.3f  fresh %12.3f  (cap %.2f)\n"
          name col b f cap;
        if f > cap then
          failures :=
            Printf.sprintf "%s.%s median %.3f exceeds the %.2f cap (baseline %.3f)"
              name col f cap b
            :: !failures
      | _ -> ()
  in
  List.iter
    (fun (name, base_series) ->
      match List.assoc_opt name fresh with
      | None ->
        failures := Printf.sprintf "%s: series missing from fresh run" name
                    :: !failures
      | Some fresh_series ->
        List.iter (check name base_series fresh_series) (columns_of base_series))
    baseline;
  Printf.printf "bench gate: %d column medians checked against %s\n" !checked
    baseline_path;
  List.rev !failures

(* ----------------------- Perfbench A/B form ----------------------- *)

(* A perfbench result line is an object with a "correct" member; the
   series form's top level never has one. *)
let result_of line =
  match Json.parse line with
  | Ok (Json.Obj _ as r) when Json.mem "correct" r <> None -> Some r
  | Ok _ | Error _ -> None

let lines_of path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let is_perfbench path =
  match lines_of path with first :: _ -> result_of first <> None | [] -> false

let load_runs path =
  List.mapi
    (fun i line ->
      match result_of line with
      | Some r -> r
      | None ->
        failwith (Printf.sprintf "%s:%d: not a perfbench result line" path (i + 1)))
    (lines_of path)

(* (name, better, bound) of every BENCHMARK.json end_to_end metric;
   [better] is "lower" or "higher". *)
let end_to_end path =
  let spec = match Json.parse (read_file path) with
    | Ok spec -> spec
    | Error why -> failwith (path ^ ": " ^ why)
  in
  match Json.mem "end_to_end" spec with
  | Some (Json.Arr ms) ->
    List.map
      (fun m ->
        match
          (Json.str_mem "name" m, Json.str_mem "better" m,
           Option.bind (Json.mem "bound" m) Json.number)
        with
        | Some name, Some ("lower" | "higher" as better), Some bound ->
          (name, better, bound)
        | _ -> failwith (path ^ ": malformed end_to_end entry"))
      ms
  | _ -> failwith (path ^ ": no end_to_end list")

let metric name run =
  Option.bind (Json.mem "metrics" run) (fun ms ->
      Option.bind (Json.mem name ms) (fun m ->
          Option.bind (Json.mem "value" m) Json.number))

(* The failures of a perfbench A/B comparison; prints every judged
   metric on the way. *)
let gate_perfbench ~baseline_path ~fresh_path =
  let benchmark = "BENCHMARK.json" in
  let metrics = end_to_end benchmark in
  let parent = load_runs baseline_path and change = load_runs fresh_path in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (side, runs) ->
      List.iteri
        (fun i r ->
          if Json.mem "correct" r <> Some (Json.Bool true) then
            fail "%s run %d is not correct" side (i + 1))
        runs)
    [ ("parent", parent); ("change", change) ];
  List.iter
    (fun (name, better, bound) ->
      match
        (median (List.filter_map (metric name) parent),
         median (List.filter_map (metric name) change))
      with
      | Some p, Some c ->
        (* How much worse the change is, as a share of the parent. *)
        let worse = if better = "lower" then (c -. p) /. p else (p -. c) /. p in
        Printf.printf "  %-20s parent %12.3f  change %12.3f  (%+.1f%%, %s is better, bound %.0f%%)\n"
          name p c ((c /. p -. 1.0) *. 100.0) better (bound *. 100.0);
        if worse > bound then
          fail "%s worse by %.1f%% (median %.3f -> %.3f, %s is better, bound %.0f%%)"
            name (worse *. 100.0) p c better (bound *. 100.0)
      | _ -> fail "%s: missing from the parent's or the change's runs" name)
    metrics;
  Printf.printf "bench gate: %d metrics of %s judged over %d parent and %d change runs\n"
    (List.length metrics) benchmark (List.length parent) (List.length change);
  List.rev !failures

let () =
  let baseline_path = ref "BENCH_eval.json" in
  let fresh_path = ref "" in
  let spec =
    [
      ("--baseline", Arg.Set_string baseline_path,
       "FILE  committed baseline, or the parent's perfbench result lines");
      ("--fresh", Arg.Set_string fresh_path,
       "FILE  freshly generated dump, or the change's perfbench result lines");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gate.exe --baseline BENCH_eval.json|parent.jsonl --fresh bench.json|change.jsonl";
  if !fresh_path = "" then (
    prerr_endline "gate.exe: --fresh is required";
    exit 2);
  let baseline_path = !baseline_path and fresh_path = !fresh_path in
  let failures =
    if is_perfbench baseline_path then gate_perfbench ~baseline_path ~fresh_path
    else gate_series ~baseline_path ~fresh_path
  in
  match failures with
  | [] -> print_endline "bench gate: OK"
  | fs ->
    List.iter (fun f -> Printf.eprintf "bench gate: FAIL %s\n" f) fs;
    exit 1
