(* Bench regression gate.

   Compares a fresh `entangle-bench --json` dump against the committed
   baseline (BENCH_eval.json).  Every column is judged by its median
   over the series' rows, under the first rule in [rules] whose suffix
   it ends with; columns no rule names are not gated.  A rule has one
   of three limits:

   - [Slack t], for timings: fail when the fresh median is more than
     [t] slower than the baseline's.  Baseline medians below the rule's
     noise floor are skipped — a 25% "regression" of 40 microseconds is
     scheduler jitter, not a slowdown.
   - [Floor x]: fail when the fresh median drops below [x].
   - [Cap x]: fail when the fresh median exceeds [x].

   Floors and caps are absolute because the columns they judge are
   ratios of two same-machine timings, which port across hardware where
   raw timings do not:
   - the 4-domain sharded submit speedup must beat 2.5x, or sharding is
     not pulling its weight;
   - armed-vs-disarmed telemetry overhead must stay under the
     observability layer's <5% promise;
   - a page-cache-bound journaling submit stream may cost at most 3x
     the plain engine (fsync-bound variants are the disk's cost and are
     not gated);
   - a journaling submit stream through the frame protocol may cost at
     most 5x the plain one — looser than the WAL cap, because a socket
     round trip amplifies small absolute regressions into large ratios.

     gate.exe --baseline BENCH_eval.json --fresh bench.json [--tolerance T]

   [--tolerance T] replaces every timing rule's slack. *)

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

type limit =
  | Slack of float  (* fresh <= baseline * (1 + t) *)
  | Floor of float  (* fresh >= x *)
  | Cap of float    (* fresh <= x *)

(* (column suffix, limit, noise floor of the baseline median).  The
   first matching suffix wins, so longer suffixes come first. *)
let rules =
  [
    ("service_overhead_x", Cap 5.0, 0.0);
    ("wal_overhead_x", Cap 3.0, 0.0);
    ("overhead_ratio", Cap 1.05, 0.0);
    ("sharded_submit_speedup", Floor 2.5, 0.0);
    ("_ms", Slack 0.25, 1.0);
    ("_us", Slack 0.25, 1000.0);
    ("_ns", Slack 0.25, 1_000_000.0);
  ]

let rule_of_column col =
  List.find_opt (fun (suffix, _, _) -> String.ends_with ~suffix col) rules

(* [Some why] when the fresh median [f] breaks [limit] against the
   baseline median [b]. *)
let violation limit ~b ~f =
  match limit with
  | Slack t when f > b *. (1.0 +. t) ->
    Some
      (Printf.sprintf "slowed down %.1f%% (median %.3f -> %.3f, tolerance %.0f%%)"
         ((f /. b -. 1.0) *. 100.0) b f (t *. 100.0))
  | Floor x when f < x ->
    Some (Printf.sprintf "median %.3f is below the %.2f floor (baseline %.3f)" f x b)
  | Cap x when f > x ->
    Some (Printf.sprintf "median %.3f exceeds the %.2f cap (baseline %.3f)" f x b)
  | Slack _ | Floor _ | Cap _ -> None

let describe = function
  | Slack t -> Printf.sprintf "slack %.0f%%" (t *. 100.0)
  | Floor x -> Printf.sprintf "floor %.2f" x
  | Cap x -> Printf.sprintf "cap %.2f" x

let () =
  let baseline_path = ref "BENCH_eval.json" in
  let fresh_path = ref "" in
  let tolerance = ref None in
  let spec =
    [
      ("--baseline", Arg.Set_string baseline_path, "FILE  committed baseline");
      ("--fresh", Arg.Set_string fresh_path, "FILE  freshly generated dump");
      ("--tolerance", Arg.Float (fun t -> tolerance := Some t),
       "T  fail when a timing median(fresh) > median(baseline) * (1+T)  \
        (default 0.25)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gate.exe --baseline BENCH_eval.json --fresh bench.json [--tolerance T]";
  if !fresh_path = "" then (
    prerr_endline "gate.exe: --fresh is required";
    exit 2);
  let baseline = load !baseline_path and fresh = load !fresh_path in
  let failures = ref [] in
  let checked = ref 0 in
  let check name base_series fresh_series col =
    match
      ( rule_of_column col,
        column_median base_series col,
        column_median fresh_series col )
    with
    | None, _, _ | _, None, _ | _, _, None -> ()
    | Some (_, _, noise), Some b, Some _ when b < noise ->
      Printf.printf "  %-32s %-30s base %12.3f  (below noise floor, skipped)\n"
        name col b
    | Some (_, limit, _), Some b, Some f ->
      let limit =
        match (limit, !tolerance) with Slack _, Some t -> Slack t | l, _ -> l
      in
      incr checked;
      Printf.printf "  %-32s %-30s base %12.3f  fresh %12.3f  (%s)\n" name col
        b f (describe limit);
      Option.iter
        (fun why -> failures := Printf.sprintf "%s.%s %s" name col why :: !failures)
        (violation limit ~b ~f)
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
    !baseline_path;
  match List.rev !failures with
  | [] -> print_endline "bench gate: OK"
  | fs ->
    List.iter (fun f -> Printf.eprintf "bench gate: FAIL %s\n" f) fs;
    exit 1
