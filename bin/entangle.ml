(* The `entangle` command-line tool.

   entangle solve FILE      evaluate an entangled-query program
   entangle check FILE      classify a program (safety, uniqueness, ...)
   entangle generate ...    emit workload programs for experimentation *)

open Cmdliner
open Relational

let read_file path =
  let ic = open_in_bin path in
  let s =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in ic;
      raise e
  in
  close_in ic;
  s

let load path =
  let program = Entangled.Parser.parse_program (read_file path) in
  let db = Database.create () in
  let queries = Entangled.Parser.load_program db program in
  (db, queries)

(* Validated numeric converters: nonsense values are rejected at parse
   time with a message naming the constraint, instead of leaking into
   the solver (where a negative deadline silently means "already
   expired"). *)
let nonneg_float_conv =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
    | Some v when v < 0.0 ->
      Error (`Msg (Printf.sprintf "expected a non-negative number, got %s" s))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_float)

let nonneg_int_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    | Some v when v < 0 ->
      Error
        (`Msg (Printf.sprintf "expected a non-negative integer, got %s" s))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    | Some v when v < 1 ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

let fsync_conv =
  let parse s =
    match Durable.fsync_policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown fsync policy %S (always|never|every-n:<N>)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Durable.fsync_policy_to_string p)
  in
  Arg.conv (parse, print)

(* A WAL that cannot be written stops the process: carrying on would
   answer from state a restart does not recover. *)
let wal_failed why =
  Printf.eprintf "WAL write failed: %s; stopping\n%!" why;
  exit 1

let handle_syntax f =
  try f () with
  | Entangled.Parser.Syntax_error (line, msg) ->
    Printf.eprintf "syntax error on line %d: %s\n" line msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let arm_flight_recorder path =
  Obs.Flight_recorder.set_dump_path (Some path);
  Obs.Flight_recorder.arm ()

(* The evaluation budget flags [solve] and [serve] share.  The term
   yields the guard they arm: [None] when no budget is set. *)
let guard_term =
  let deadline_ms =
    Arg.(
      value
      & opt (some nonneg_float_conv) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for each evaluation (the whole solve, or one \
             served request); on expiry the best (partial) answer found so \
             far is returned, marked $(b,DEGRADED).")
  in
  let max_probes =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "max-probes" ] ~docv:"N"
          ~doc:"Abort (degraded) after $(docv) database probe attempts.")
  in
  let max_tuples =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "max-tuples" ] ~docv:"N"
          ~doc:"Abort (degraded) after scanning $(docv) tuples.")
  in
  let guard deadline_ms max_probes max_tuples =
    if deadline_ms = None && max_probes = None && max_tuples = None then None
    else
      let deadline_ns =
        Option.map (fun ms -> Int64.of_float (ms *. 1e6)) deadline_ms
      in
      Some (Resilient.arm ?max_probes ?max_tuples ?deadline_ns ())
  in
  Cmdliner.Term.(const guard $ deadline_ms $ max_probes $ max_tuples)

(* ------------------------------ solve ----------------------------- *)

type algorithm = Scc | Gupta | Single_connected | Brute | Consistent

let algorithm_conv =
  let parse = function
    | "scc" -> Ok Scc
    | "gupta" -> Ok Gupta
    | "single-connected" -> Ok Single_connected
    | "brute" -> Ok Brute
    | "consistent" -> Ok Consistent
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | Scc -> "scc"
      | Gupta -> "gupta"
      | Single_connected -> "single-connected"
      | Brute -> "brute"
      | Consistent -> "consistent")
  in
  Arg.conv (parse, print)

let print_degraded = function
  | None -> ()
  | Some d ->
    Format.printf "DEGRADED: %a@." Resilient.pp_degradation d

let print_stats stats = Format.printf "stats: %a@." Coordination.Stats.pp stats

let print_solution db queries solution stats show_stats =
  match solution with
  | None ->
    print_endline "no coordinating set exists";
    if show_stats then print_stats stats
  | Some s ->
    Format.printf "%a@." (Entangled.Solution.pp queries) s;
    (match Entangled.Solution.validate db queries s with
    | Ok () -> ()
    | Error m -> Format.printf "WARNING: solution failed validation: %s@." m);
    if show_stats then print_stats stats

let solve_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Scc
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "Evaluation algorithm: $(b,scc) (Section 4, safe sets), \
             $(b,gupta) (baseline, safe+unique), $(b,single-connected) \
             (Theorem 3), $(b,consistent) (Section 5 restricted form; the \
             program must match it) or $(b,brute) (exact, tiny inputs \
             only).")
  in
  let first =
    Arg.(
      value & flag
      & info [ "first" ]
          ~doc:"Return the first coordinating set found instead of a largest one.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print probe counts and timings.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH"
          ~doc:"Write the coordination graph in Graphviz DOT format to $(docv).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print a step-by-step trace of the SCC algorithm, including \
             the SQL each candidate set sends to the database.")
  in
  let explain_analyze =
    Arg.(
      value & flag
      & info [ "explain-analyze" ]
          ~doc:
            "After solving, print every cached query plan with its \
             observed statistics: join order, access paths, estimated vs \
             observed cardinality per step, tuples scanned and emitted, \
             selectivity, and per-step times (the solve runs under \
             analyze-mode timing).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a metrics-registry snapshot after the solve: JSON to \
             $(docv) and Prometheus text exposition to $(docv).prom.  \
             Implies metrics recording (as $(b,--metrics)) without the \
             stdout dump.")
  in
  let flight_recorder =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "Arm the always-on flight recorder: a fixed-size ring keeps \
             the most recent observability items, and on the first \
             incident (degraded solve, typed abort) the window is dumped \
             to $(docv) — Chrome trace_event JSON, or JSONL when $(docv) \
             ends in $(b,.jsonl).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record a structured execution trace (solver phases, per-probe \
             spans) to $(docv): one JSON object per line when $(docv) ends \
             in $(b,.jsonl), a Chrome $(b,trace_event) JSON array (loadable \
             in chrome://tracing or Perfetto) otherwise.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record latency histograms and counters during evaluation and \
             dump them (with p50/p95/p99) after the answer.")
  in
  (* The solver body computes an exit code instead of exiting so an
     installed trace sink always writes its trailer (a Chrome trace
     without the closing bracket is not valid JSON). *)
  let run file algorithm first stats dot explain
      explain_analyze metrics_out flight_recorder trace metrics guard =
    handle_syntax @@ fun () ->
    let db, input = load file in
    Option.iter arm_flight_recorder flight_recorder;
    if metrics || metrics_out <> None then Obs.set_metrics true;
    Database.set_guard db guard;
    Option.iter Resilient.start_solve guard;
    let solve_it () =
      if explain then
        match Coordination.Explain.trace db input with
        | Error (Coordination.Scc_algo.Not_safe ws) ->
          Printf.eprintf
            "the query set is not safe (%d ambiguous postconditions)\n"
            (List.length ws);
          1
        | Ok report ->
          Format.printf "%a@." (Coordination.Explain.pp db) report;
          0
      else begin
        let write_dot queries (graph : Entangled.Coordination_graph.t) highlight =
          match dot with
          | None -> ()
          | Some path ->
            Graphs.Dot.to_file
              ~label:(fun i -> queries.(i).Entangled.Query.name)
              ~highlight graph.graph ~path
        in
        match algorithm with
        | Scc -> (
          let selection =
            if first then Coordination.Scc_algo.First_found
            else Coordination.Scc_algo.Largest
          in
          match Coordination.Scc_algo.solve ~selection db input with
          | Error (Coordination.Scc_algo.Not_safe ws) ->
            Printf.eprintf
              "the query set is not safe (%d ambiguous postconditions); try \
               `--algorithm consistent` or `--algorithm brute`\n"
              (List.length ws);
            1
          | Ok outcome ->
            let in_solution i =
              match outcome.solution with
              | Some s -> List.mem i s.members
              | None -> false
            in
            write_dot outcome.queries outcome.graph in_solution;
            print_solution db outcome.queries outcome.solution outcome.stats
              stats;
            print_degraded outcome.degraded;
            0)
        | Gupta -> (
          match Coordination.Gupta.solve db input with
          | Error e ->
            Format.eprintf "baseline not applicable: %a@."
              (Coordination.Gupta.pp_error (Entangled.Query.rename_set input))
              e;
            1
          | Ok outcome ->
            print_solution db outcome.queries outcome.solution outcome.stats
              stats;
            print_degraded outcome.degraded;
            0)
        | Consistent -> (
          match Coordination.Consistent_query.of_entangled db input with
          | Error m ->
            Printf.eprintf
              "not a Section 5 consistent-coordination program: %s\n" m;
            1
          | Ok (config, qs) -> (
            match Coordination.Consistent.solve db config qs with
            | Error e ->
              Format.eprintf "consistent coordination failed: %a@."
                Coordination.Consistent.pp_error e;
              1
            | Ok outcome ->
              (match Coordination.Consistent.to_solution db outcome with
              | Some (queries, s) ->
                print_solution db queries (Some s) outcome.stats stats
              | None -> print_solution db [||] None outcome.stats stats);
              print_degraded outcome.degraded;
              0))
        | Single_connected -> (
          match Coordination.Single_connected.solve db input with
          | Error e ->
            Format.eprintf "not single-connected: %a@."
              (Coordination.Single_connected.pp_error
                 (Entangled.Query.rename_set input))
              e;
            1
          | Ok outcome ->
            print_solution db outcome.queries outcome.solution outcome.stats
              stats;
            print_degraded outcome.degraded;
            0)
        | Brute ->
          let queries = Entangled.Query.rename_set input in
          if Array.length queries > Coordination.Brute.max_queries then begin
            Printf.eprintf "brute force is limited to %d queries\n"
              Coordination.Brute.max_queries;
            1
          end
          else begin
            let outcome = Coordination.Brute.solve db queries in
            (match outcome.solution with
            | None -> print_endline "no coordinating set exists"
            | Some s -> (
              Format.printf "%a@." (Entangled.Solution.pp queries) s;
              match Entangled.Solution.validate db queries s with
              | Ok () -> ()
              | Error m -> Format.printf "WARNING: validation failed: %s@." m));
            if stats then
              Format.printf "stats: %a@." Coordination.Stats.pp outcome.stats;
            print_degraded outcome.degraded;
            0
          end
      end
    in
    let run_solve () =
      if explain_analyze then Coordination.Explain.with_analyze solve_it
      else solve_it ()
    in
    let code =
      match trace with
      | None -> run_solve ()
      | Some path ->
        let oc = open_out path in
        let sink = Obs.sink_for path (output_string oc) in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Obs.with_sink sink run_solve)
    in
    if explain_analyze then
      Format.printf "%a@." Coordination.Explain.pp_analyze db;
    if metrics then Format.printf "-- metrics --@.%a@?" Obs.pp_metrics ();
    (match metrics_out with
    | None -> ()
    | Some path ->
      (* Deterministic gauges describing the end state, so the snapshot
         is meaningful (and testable) even when the solve recorded
         nothing else. *)
      let gauge name help v =
        Obs.Gauge.set (Obs.Gauge.make ~help name) (float_of_int v)
      in
      gauge "db.plan_cache_size" "cached plan shapes" (Database.plan_cache_size db);
      gauge "db.tables" "relations in the database" (List.length (Database.relations db));
      gauge "db.tuples" "live tuples in the database" (Database.total_tuples db);
      gauge "db.data_version" "content-version stamp" (Database.data_version db);
      let write p s =
        let oc = open_out p in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc s)
      in
      write path (Obs.metrics_json ());
      write (path ^ ".prom") (Obs.metrics_prometheus ()));
    if code <> 0 then exit code
  in
  let doc = "Find a coordinating set for an entangled-query program." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Cmdliner.Term.(
      const run $ file $ algorithm $ first $ stats $ dot
      $ explain $ explain_analyze $ metrics_out $ flight_recorder $ trace
      $ metrics $ guard_term)

(* ------------------------------ check ----------------------------- *)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    handle_syntax @@ fun () ->
    let db, input = load file in
    let queries = Entangled.Query.rename_set input in
    Printf.printf "queries:    %d\n" (Array.length queries);
    Printf.printf "database:   %d relations, %d tuples\n"
      (List.length (Database.relations db))
      (Database.total_tuples db);
    Array.iter
      (fun q ->
        match Entangled.Query.well_formed db q with
        | Ok () -> ()
        | Error m -> Printf.printf "ill-formed %s: %s\n" q.Entangled.Query.name m)
      queries;
    let graph = Entangled.Coordination_graph.build queries in
    Printf.printf "graph:      %d edges (%d extended)\n"
      (Graphs.Digraph.edge_count graph.graph)
      (List.length graph.extended);
    let class_name =
      match Entangled.Safety.classify graph with
      | `Safe_unique -> "safe and unique (gupta, scc)"
      | `Safe -> "safe, not unique (scc)"
      | `Unsafe -> "unsafe (consistent-coordination API or brute)"
    in
    Printf.printf "class:      %s\n" class_name;
    (match Coordination.Single_connected.check graph with
    | Ok () -> Printf.printf "            also single-connected (Theorem 3)\n"
    | Error _ -> ());
    let scc = Graphs.Scc.compute graph.graph in
    Printf.printf "components: %d SCCs, largest %d\n" scc.count
      (Array.fold_left (fun m ms -> max m (List.length ms)) 0 scc.members)
  in
  let doc = "Parse a program and report safety, uniqueness and graph shape." in
  Cmd.v (Cmd.info "check" ~doc) Cmdliner.Term.(const run $ file)

(* ----------------------------- generate --------------------------- *)

let emit_program db queries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      let schema = Relation.schema r in
      Buffer.add_string buf
        (Printf.sprintf "table %s(%s).\n" (Schema.name schema)
           (String.concat ", " (Array.to_list (Schema.attributes schema))));
      Relation.iter
        (fun t ->
          Buffer.add_string buf
            (Printf.sprintf "fact %s(%s).\n" (Schema.name schema)
               (String.concat ", "
                  (Array.to_list
                     (Array.map Entangled.Parser.value_to_syntax t)))))
        r)
    (Database.relations db);
  List.iter
    (fun q ->
      Buffer.add_string buf (Entangled.Parser.query_to_string q);
      Buffer.add_char buf '\n')
    queries;
  print_string (Buffer.contents buf)

let generate_cmd =
  let shape =
    Arg.(
      required
      & pos 0 (some (enum [ ("list", `List); ("scale-free", `Scale_free) ])) None
      & info [] ~docv:"SHAPE" ~doc:"Workload shape: $(b,list) or $(b,scale-free).")
  in
  let n =
    Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let rows =
    Arg.(
      value & opt int 200
      & info [ "rows" ] ~docv:"ROWS" ~doc:"Size of the Posts table.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run shape n rows seed =
    let topics = min 100 rows in
    match shape with
    | `List ->
      let db, queries = Workload.Listgen.make ~rows ~topics ~seed n in
      emit_program db queries
    | `Scale_free ->
      let db, queries, _ = Workload.Netgen.make ~rows ~topics ~seed n in
      emit_program db queries
  in
  let doc = "Emit a runnable workload program (facts + queries) to stdout." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Cmdliner.Term.(const run $ shape $ n $ rows $ seed)

(* ------------------------------- repl ----------------------------- *)

(* An interactive coordination server in miniature: facts update the
   database, queries stream into the online engine, coordinating sets
   fire as soon as they exist (Sections 6.1 and 7). *)
let repl_help =
  {|statements end with '.':
  table F(a, b).           declare a relation
  fact F(1, X).            insert a tuple
  query n: {P} H :- B.     submit an entangled query
directives:
  \pending                 list waiting queries
  \flush                   evaluate all pending components
  \stats                   cumulative solver statistics
  \db                      database summary
  \wal                     journal status (segment, offsets, last LSN)
  \snapshot                force a snapshot + segment rotation now
  \help                    this message
  \quit                    leave|}

(* The engine flags [repl] and [serve] share.  The term yields the
   session opener: it arms the flight recorder when asked, then builds
   the engine — durable with --wal, recovering an existing journal and
   reporting on stdout (exit 1 on an unrecoverable directory), in
   memory otherwise. *)
let session_term =
  let consume =
    Arg.(
      value & flag
      & info [ "consume" ]
          ~doc:"Coordinated sets book their tuples: matched rows are deleted.")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Make the session durable: journal every operation to a \
             checksummed write-ahead log in $(docv).  If the directory \
             already holds a journal the session $(i,recovers) from it \
             first (replaying the log, truncating any torn tail) and \
             $(b,--consume) is ignored in favour of the journaled engine \
             configuration, so a killed session restarts into identical \
             state.")
  in
  let fsync =
    Arg.(
      value
      & opt fsync_conv Durable.Always
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: $(b,always) (every committed operation), \
             $(b,every-n:<N>) (every N operations) or $(b,never) (leave \
             it to the page cache).  Only meaningful with $(b,--wal).")
  in
  let snapshot_every =
    Arg.(
      value
      & opt nonneg_int_conv 512
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot the engine state once at least $(docv) journaled \
             operations have committed since the last snapshot and the \
             journal written since is at least as large as that \
             snapshot's image, so recovery replays at most about one \
             image of journal or $(docv) operations, whichever is more \
             (0 disables periodic snapshots).  Only meaningful with \
             $(b,--wal).")
  in
  let flight_recorder =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder for the whole session; on the first \
             incident (a degraded evaluation under a guard, an abnormal \
             disconnect) the recent-item window is dumped to $(docv).")
  in
  let open_session consume wal fsync snapshot_every flight_recorder () =
    Option.iter arm_flight_recorder flight_recorder;
    match wal with
    | None ->
      let db = Database.create () in
      (None, db, Coordination.Online.create ~consume db)
    | Some dir -> (
      match
        Durable.open_or_recover ~consume
          (Durable.config ~fsync ~snapshot_every dir)
      with
      | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
      | Ok (t, db, engine, report) ->
        (match report with
        | None -> Printf.printf "wal: new journal in %s\n" dir
        | Some r -> Format.printf "%a@." Durable.pp_report r);
        (Some t, db, engine))
  in
  Cmdliner.Term.(
    const open_session $ consume $ wal $ fsync $ snapshot_every
    $ flight_recorder)

let repl_cmd =
  let run open_session =
    (* A pipe downstream of the repl closing (e.g. `entangle repl | head`)
       must end the session cleanly, not kill the process: ignore
       SIGPIPE and let the write surface as Sys_error instead. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let durable, db, engine = open_session () in
    let report_fired (c : Coordination.Online.coordinated) =
      Printf.printf "coordinated: {%s}\n"
        (String.concat ", "
           (List.map (fun q -> q.Entangled.Query.name) c.queries))
    in
    (* A fact or query body over a missing table, or with the wrong
       arity, is refused before it reaches the store or the engine. *)
    let refuse e = Format.printf "error: %a@." Database.pp_schema_error e in
    let handle_statement stmt =
      match stmt with
      | Entangled.Parser.Table (name, attrs) ->
        ignore (Database.create_table' db name attrs);
        Option.iter
          (fun t -> Durable.journal_create_table t name attrs)
          durable;
        Printf.printf "table %s created\n" name
      | Entangled.Parser.Fact (rel, values) -> (
        match Database.schema_error db rel (List.length values) with
        | Some e -> refuse e
        | None ->
          Database.insert db rel values;
          Option.iter (fun t -> Durable.journal_insert t rel values) durable)
      | Entangled.Parser.Query_stmt q -> (
        match Database.body_schema_error db q.Entangled.Query.body with
        | Some e -> refuse e
        | None -> (
          match Coordination.Online.submit ~witness:false engine q with
          | Coordination.Online.Coordinated c -> report_fired c
          | Coordination.Online.Pending ->
            Printf.printf "pending: %s\n"
              (if q.Entangled.Query.name = "" then "(unnamed)"
               else q.Entangled.Query.name)
          | Coordination.Online.Rejected_unsafe ws ->
            Printf.printf "rejected: submission makes the pool unsafe (%d \
                           ambiguous postconditions)\n"
              (List.length ws)))
    in
    let handle_directive line =
      match String.trim line with
      | "\\pending" ->
        let names =
          List.map
            (fun q -> q.Entangled.Query.name)
            (Coordination.Online.pending engine)
        in
        Printf.printf "pending (%d): %s\n" (List.length names)
          (String.concat ", " names)
      | "\\flush" ->
        let fired = Coordination.Online.flush ~witness:false engine in
        List.iter report_fired fired;
        if fired = [] then Printf.printf "nothing fired\n"
      | "\\stats" ->
        Format.printf "%a (lifetime: %d coordinated)@." Coordination.Stats.pp
          (Coordination.Online.stats engine)
          (Coordination.Online.total_coordinated engine)
      | "\\db" -> Format.printf "%a@." Database.pp db
      | "\\wal" -> (
        match durable with
        | None -> Printf.printf "wal: not enabled (start with --wal DIR)\n"
        | Some t ->
          Printf.printf
            "wal: %s\n  segment %s\n  %d bytes written, %d synced, last \
             LSN %Ld\n"
            (Durable.dir t)
            (Filename.basename (Durable.current_segment t))
            (Durable.wal_offset t) (Durable.synced_offset t)
            (Durable.last_lsn t))
      | "\\snapshot" -> (
        match durable with
        | None -> Printf.printf "wal: not enabled (start with --wal DIR)\n"
        | Some t -> (
          match Durable.snapshot t with
          | Ok () ->
            Printf.printf "snapshot written at LSN %Ld\n"
              (Durable.last_lsn t)
          | Error why ->
            Printf.printf "snapshot FAILED (%s); journal retained\n" why))
      | "\\help" -> print_endline repl_help
      | "\\quit" -> raise Exit
      | other -> Printf.printf "unknown directive %s (try \\help)\n" other
    in
    let buffer = Buffer.create 256 in
    (try
       while true do
         let line = input_line stdin in
         let trimmed = String.trim line in
         if String.length trimmed > 0 && trimmed.[0] = '\\' then
           handle_directive trimmed
         else begin
           Buffer.add_string buffer line;
           Buffer.add_char buffer '\n';
           (* A statement is complete when the buffer ends with '.'
              (ignoring trailing whitespace). *)
           let contents = String.trim (Buffer.contents buffer) in
           if String.length contents > 0
              && contents.[String.length contents - 1] = '.'
           then begin
             Buffer.clear buffer;
             try
               List.iter handle_statement
                 (Entangled.Parser.parse_program contents)
             with
             | Entangled.Parser.Syntax_error (l, m) ->
               Printf.printf "syntax error (line %d): %s\n" l m
             | Invalid_argument m -> Printf.printf "error: %s\n" m
           end
         end
       done
     with
     | End_of_file | Exit | Sys_error _ -> ()
     | Durable.Wal_failed why -> wal_failed why);
    Option.iter Durable.close durable;
    (try
       Printf.printf "bye: %d queries coordinated, %d still pending\n"
         (Coordination.Online.total_coordinated engine)
         (Coordination.Online.pending_count engine)
     with Sys_error _ -> ())
  in
  let doc =
    "Interactive coordination server: facts and queries stream in, \
     coordinating sets fire as soon as they exist."
  in
  Cmd.v (Cmd.info "repl" ~doc) Cmdliner.Term.(const run $ session_term)

(* ------------------------------ recover ---------------------------- *)

let recover_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"WAL directory written by $(b,repl --wal).")
  in
  let run dir =
    match Durable.recover (Durable.config dir) with
    | Error m ->
      Printf.eprintf "error: %s\n" m;
      exit 1
    | Ok (t, db, engine, report) ->
      Format.printf "%a@." Durable.pp_report report;
      Printf.printf "engine: %d pending, %d coordinated (lifetime)\n"
        (Coordination.Online.pending_count engine)
        (Coordination.Online.total_coordinated engine);
      Printf.printf "database: %d relations, %d tuples\n"
        (List.length (Database.relations db))
        (Database.total_tuples db);
      Durable.close t
  in
  let doc =
    "Recover a durable session from its write-ahead log: load the \
     newest valid snapshot, replay the journal tail, truncate any torn \
     tail, and report what happened.  The recovered state is \
     re-checkpointed, so a second recovery is clean."
  in
  Cmd.v (Cmd.info "recover" ~doc) Cmdliner.Term.(const run $ dir)

(* ------------------------------ serve ------------------------------ *)

(* Shared connection flags for serve/client. *)
let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) a Unix-domain socket at $(docv).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST"
        ~doc:"TCP host to bind or connect to (with $(b,--port)).")

let port_arg =
  Arg.(
    value
    & opt (some nonneg_int_conv) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) TCP $(docv); 0 binds ephemeral.")

let listen_of_flags socket host port =
  match (socket, port) with
  | Some path, None -> Server.Unix_socket path
  | None, Some p -> Server.Tcp (host, p)
  | Some _, Some _ ->
    Printf.eprintf "error: --socket and --port are mutually exclusive\n";
    exit 2
  | None, None ->
    Printf.eprintf "error: one of --socket PATH or --port N is required\n";
    exit 2

let serve_cmd =
  let max_pending =
    Arg.(
      value
      & opt pos_int_conv 1024
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission control: refuse submissions with a typed \
             $(b,overloaded) frame once $(docv) entries are pending, \
             instead of queueing unboundedly.")
  in
  let max_sessions =
    Arg.(
      value
      & opt nonneg_int_conv 0
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Exit after $(docv) client sessions have come and gone (0 = \
             serve forever).  Scripted tests use this to terminate \
             deterministically.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print session lifecycle lines to stdout.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the metrics registry (per-request latency histogram, \
             session/overload counters, WAL and snapshot timings) and \
             print it on exit.")
  in
  let run socket host port open_session max_pending max_sessions verbose
      metrics guard =
    let listen = listen_of_flags socket host port in
    if metrics then Obs.set_metrics true;
    let durable, db, engine = open_session () in
    Database.set_guard db guard;
    let cfg =
      {
        (Server.default_config listen) with
        Server.max_pending;
        max_sessions;
        verbose;
      }
    in
    let srv =
      Server.create cfg
        { Server.db; engine = Server.Sequential engine; durable; guard }
    in
    (match listen with
    | Server.Unix_socket path -> Printf.printf "serving on unix:%s\n%!" path
    | Server.Tcp (host, _) ->
      Printf.printf "serving on %s:%d\n%!" host (Server.port srv));
    (try Server.run srv
     with Durable.Wal_failed why ->
       Server.stop srv;
       wal_failed why);
    Server.stop srv;
    Option.iter Durable.close durable;
    Printf.printf "served %d sessions; %d coordinated, %d still pending\n"
      (Server.sessions_served srv)
      (Coordination.Online.total_coordinated engine)
      (Coordination.Online.pending_count engine);
    if metrics then Format.printf "-- metrics --@.%a@?" Obs.pp_metrics ()
  in
  let doc =
    "Coordination as a service: a long-lived socket server multiplexing \
     many client sessions onto one online engine (length-prefixed JSON \
     frames: submit/retire/flush/status/subscribe, asynchronous matched/\
     degraded notifications).  With $(b,--wal) the engine is durable: \
     kill the server, start it again on the same directory, and it \
     resumes with identical state."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Cmdliner.Term.(
      const run $ socket_arg $ host_arg $ port_arg $ session_term
      $ max_pending $ max_sessions $ verbose $ metrics $ guard_term)

(* ------------------------------ client ----------------------------- *)

let client_cmd =
  let abort_after =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "abort-after" ] ~docv:"N"
          ~doc:
            "Disconnect abruptly (RST, nothing read) after sending $(docv) \
             requests — simulates a client dying mid-stream; the server \
             must tear down that session and keep serving others.")
  in
  let timeout =
    Arg.(
      value
      & opt nonneg_float_conv 5.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:"Seconds to wait for each response frame.")
  in
  let run socket host port abort_after timeout =
    (* A server that hangs up must surface as [Client.Closed] on the
       next write, not as a SIGPIPE that kills the client silently. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen = listen_of_flags socket host port in
    let conn = Server.Client.connect listen in
    let sent = ref 0 and unanswered = ref 0 in
    let aborted = ref false in
    (* Print every frame up to and including the echoed response of the
       oldest unanswered request; subscribed notifications precede it. *)
    let rec await () =
      match Server.Client.recv ~timeout conn with
      | None -> Printf.printf "client: timeout\n"
      | Some frame ->
        print_endline (Json.to_string frame);
        if Json.str_mem "notify" frame <> None then await ()
    in
    let await_all () =
      while !unanswered > 0 do
        await ();
        decr unanswered
      done
    in
    let request line =
      let line = String.trim line in
      if line <> "" && not !aborted then
        match Json.parse line with
        | Error why ->
          await_all ();
          Printf.printf "client: bad request json: %s\n" why
        | Ok req -> (
          match abort_after with
          | Some k when !sent + 1 >= k ->
            await_all ();
            Server.Client.send conn req;
            Server.Client.abort conn;
            aborted := true;
            Printf.printf "client: aborted after %d requests\n" k
          | _ ->
            Server.Client.send conn req;
            incr sent;
            incr unanswered)
    in
    (* The lines of one read of stdin are sent together before their
       responses are read: a script or a replayed trace is pipelined,
       as a client of a served workload would send it, while a line
       typed at a terminal is answered before the next. *)
    let chunk = Bytes.create 65536 in
    let rec loop carry =
      match input stdin chunk 0 (Bytes.length chunk) with
      | 0 ->
        request carry;
        await_all ()
      | n ->
        let data = carry ^ Bytes.sub_string chunk 0 n in
        let cut = try String.rindex data '\n' + 1 with Not_found -> 0 in
        List.iter request (String.split_on_char '\n' (String.sub data 0 cut));
        await_all ();
        if not !aborted then
          loop (String.sub data cut (String.length data - cut))
    in
    (try loop "" with
     | Server.Client.Bad_frame why ->
       Printf.printf "client: bad frame: %s\n%!" why;
       Server.Client.close conn;
       exit 1
     | Server.Client.Closed ->
       Printf.printf "client: connection closed\n%!";
       Server.Client.close conn;
       exit 1);
    if not !aborted then Server.Client.close conn
  in
  let doc =
    "Scripted client for $(b,entangle serve): reads one JSON request per \
     stdin line, sends it as a frame, and prints the response (and any \
     notification frames preceding it).  The lines of one read of stdin \
     are sent together before their responses are read, so a script or \
     a replayed trace is pipelined; responses print in request order.  \
     The workhorse of the cram socket sessions and the mid-stream \
     disconnect test."
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Cmdliner.Term.(
      const run $ socket_arg $ host_arg $ port_arg $ abort_after $ timeout)

let () =
  let doc = "data-driven coordination with entangled queries" in
  let info = Cmd.info "entangle" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            check_cmd;
            generate_cmd;
            repl_cmd;
            recover_cmd;
            serve_cmd;
            client_cmd;
          ]))
