(* The observability subsystem: clock, spans, histograms, counters,
   sink round-trips, and the engine-level counter plumbing it extends
   (Counters.diff/copy, Stats.add_counters). *)

open Relational

(* ------------------------ mini JSON parser ------------------------ *)

(* Just enough JSON to re-parse what the jsonl and chrome sinks emit,
   so the round-trip tests check real output, not a pretty-printer's
   idea of it. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail m = raise (Bad (Printf.sprintf "%s at %d" m !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'u' ->
            advance ();
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
            go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> fail "unterminated escape")
        | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elements [])
        end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let str_exn j =
    match j with Str s -> s | _ -> raise (Bad "expected string")

  let num_exn j = match j with Num f -> f | _ -> raise (Bad "expected number")
end

(* ------------------------------ clock ----------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Obs.now_ns ()) in
  for _ = 1 to 1_000 do
    let t = Obs.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld -> %Ld" !prev t;
    prev := t
  done

(* ------------------------------ spans ----------------------------- *)

let span_of = function Obs.Span s -> Some s | Obs.Event _ -> None

let test_span_nesting () =
  let sink, contents = Obs.memory_sink () in
  let result =
    Obs.with_sink sink (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.with_span "middle"
              ~args:(fun () -> [ ("k", Obs.Int 7) ])
              (fun () -> Obs.with_span "inner" (fun () -> 42))))
  in
  Alcotest.(check int) "return value" 42 result;
  let spans = List.filter_map span_of (contents ()) in
  Alcotest.(check (list string))
    "spans close children-first"
    [ "inner"; "middle"; "outer" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) spans);
  Alcotest.(check (list int))
    "depths reflect nesting" [ 2; 1; 0 ]
    (List.map (fun (s : Obs.span) -> s.Obs.depth) spans);
  let middle = List.nth spans 1 in
  Alcotest.(check bool)
    "args evaluated and attached" true
    (middle.Obs.args = [ ("k", Obs.Int 7) ])

let test_span_disarmed () =
  (* With nothing armed, with_span must not evaluate args and must not
     touch the metrics registry. *)
  Alcotest.(check bool) "nothing armed" false (Obs.enabled ());
  let evaluated = ref false in
  let r =
    Obs.with_span
      ~args:(fun () ->
        evaluated := true;
        [])
      "dark"
      (fun () -> "ok")
  in
  Alcotest.(check string) "value passes through" "ok" r;
  Alcotest.(check bool) "args thunk not forced" false !evaluated;
  let pinged = ref false in
  Obs.event ~args:(fun () -> pinged := true; []) "nobody-listens";
  Alcotest.(check bool) "event dropped without sink" false !pinged

let test_span_exception () =
  let sink, contents = Obs.memory_sink () in
  (try
     Obs.with_sink sink (fun () ->
         Obs.with_span "doomed" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let spans = List.filter_map span_of (contents ()) in
  Alcotest.(check (list string))
    "span closes on exception" [ "doomed" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) spans)

type Obs.payload += Test_payload of int

let test_event_payload () =
  let sink, contents = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      Obs.event ~payload:(Test_payload 5) "typed";
      Obs.event "untyped");
  let payloads =
    List.filter_map
      (function
        | Obs.Event { Obs.ev_payload = Test_payload n; _ } -> Some n
        | Obs.Event _ | Obs.Span _ -> None)
      (contents ())
  in
  Alcotest.(check (list int)) "typed payload recovered" [ 5 ] payloads

(* ---------------------------- histograms -------------------------- *)

let test_histogram_buckets () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %Ld" v)
        expect
        (Obs.Histogram.bucket_of v))
    [
      (Int64.minus_one, 0);
      (0L, 0);
      (1L, 1);
      (2L, 2);
      (3L, 2);
      (4L, 3);
      (7L, 3);
      (8L, 4);
      (1023L, 10);
      (1024L, 11);
    ];
  let lo, hi = Obs.Histogram.bucket_bounds 3 in
  Alcotest.(check bool) "bucket 3 covers [4, 8)" true (lo = 4L && hi = 8L);
  (* Every positive value lands in the bucket whose bounds contain it. *)
  List.iter
    (fun v ->
      let lo, hi = Obs.Histogram.bucket_bounds (Obs.Histogram.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "%Ld within its bucket bounds" v)
        true
        (Int64.compare lo v <= 0 && Int64.compare v hi < 0))
    [ 1L; 5L; 100L; 4096L; 123_456_789L ]

let test_histogram_percentiles () =
  let h = Obs.Histogram.make "test.obs.pct" in
  Obs.Histogram.reset h;
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Obs.Histogram.percentile h 0.5);
  for v = 1 to 100 do
    Obs.Histogram.observe h (Int64.of_int v)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  Alcotest.(check int64) "sum" 5050L (Obs.Histogram.sum h);
  Alcotest.(check int64) "max" 100L (Obs.Histogram.max_value h);
  let p50 = Obs.Histogram.percentile h 0.50 in
  let p95 = Obs.Histogram.percentile h 0.95 in
  let p99 = Obs.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "percentiles are monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p99 capped at observed max" true (p99 <= 100.0);
  (* Log2 buckets promise a within-2x estimate. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 within a factor of 2 (got %.1f)" p50)
    true
    (p50 >= 25.0 && p50 <= 100.0);
  (* A single observation: every percentile is that value. *)
  let h1 = Obs.Histogram.make "test.obs.single" in
  Obs.Histogram.reset h1;
  Obs.Histogram.observe h1 5L;
  Alcotest.(check (float 0.001)) "single-value p99" 5.0
    (Obs.Histogram.percentile h1 0.99)

let test_histogram_metrics_gate () =
  let h = Obs.Histogram.make "test.obs.gate" in
  Obs.Histogram.reset h;
  Obs.set_metrics false;
  Obs.with_span ~hist:h "gated" (fun () -> ());
  Alcotest.(check int) "metrics off: nothing recorded" 0
    (Obs.Histogram.count h);
  Obs.set_metrics true;
  Obs.with_span ~hist:h "gated" (fun () -> ());
  Obs.set_metrics false;
  Alcotest.(check int) "metrics on, no sink: span recorded" 1
    (Obs.Histogram.count h)

let test_counters () =
  let c = Obs.Counter.make "test.obs.counter" in
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Counter.value c);
  let l = Obs.Counter.labeled "test.obs.counter" "lbl" in
  Obs.Counter.reset l;
  Obs.Counter.incr l;
  (match Obs.Counter.find "test.obs.counter{lbl}" with
  | Some c' -> Alcotest.(check int) "labeled registry key" 1 (Obs.Counter.value c')
  | None -> Alcotest.fail "labeled counter not registered");
  let h = Obs.Histogram.make "test.obs.reset" in
  Obs.Histogram.observe h 3L;
  Obs.reset_metrics ();
  Alcotest.(check int) "reset_metrics zeroes counters" 0 (Obs.Counter.value c);
  Alcotest.(check int) "reset_metrics zeroes histograms" 0
    (Obs.Histogram.count h)

(* ------------------------- sink round-trips ----------------------- *)

let traced_run () =
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner"
        ~args:(fun () -> [ ("rels", Obs.Str "Posts"); ("hit", Obs.Bool true) ])
        (fun () -> ());
      Obs.event ~args:(fun () -> [ ("n", Obs.Int 3) ]) "ping")

let test_jsonl_roundtrip () =
  let buf = Buffer.create 256 in
  Obs.with_sink (Obs.jsonl_sink (Buffer.add_string buf)) traced_run;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "two spans + one event" 3 (List.length lines);
  let parsed = List.map Json.parse lines in
  let get k j = Option.get (Json.member k j) in
  let types = List.map (fun j -> Json.str_exn (get "type" j)) parsed in
  Alcotest.(check (list string))
    "emission order: inner span, event, outer span"
    [ "span"; "event"; "span" ] types;
  let inner = List.nth parsed 0 in
  Alcotest.(check string) "name survives" "inner"
    (Json.str_exn (get "name" inner));
  Alcotest.(check bool) "span has dur_us" true
    (Json.member "dur_us" inner <> None);
  Alcotest.(check string) "string arg survives" "Posts"
    (Json.str_exn (Option.get (Json.member "rels" (get "args" inner))));
  let event = List.nth parsed 1 in
  Alcotest.(check bool) "event has no dur_us" true
    (Json.member "dur_us" event = None);
  Alcotest.(check (float 0.001)) "int arg survives" 3.0
    (Json.num_exn (Option.get (Json.member "n" (get "args" event))))

let test_chrome_roundtrip () =
  let buf = Buffer.create 256 in
  Obs.with_sink (Obs.chrome_sink (Buffer.add_string buf)) traced_run;
  match Json.parse (Buffer.contents buf) with
  | Json.Arr entries ->
    Alcotest.(check int) "three trace entries" 3 (List.length entries);
    let get k j = Option.get (Json.member k j) in
    List.iter
      (fun e ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "entry has %S" k)
              true
              (Json.member k e <> None))
          [ "name"; "ph"; "pid"; "tid"; "ts" ])
      entries;
    let phs = List.map (fun e -> Json.str_exn (get "ph" e)) entries in
    Alcotest.(check (list string))
      "complete spans and one instant" [ "X"; "i"; "X" ] phs;
    (* The inner span must lie within the outer span's interval. *)
    let span name =
      List.find
        (fun e ->
          Json.str_exn (get "name" e) = name && Json.str_exn (get "ph" e) = "X")
        entries
    in
    let ts e = Json.num_exn (get "ts" e) in
    let dur e = Json.num_exn (get "dur" e) in
    let outer = span "outer" and inner = span "inner" in
    Alcotest.(check bool) "child nested within parent" true
      (ts inner >= ts outer && ts inner +. dur inner <= ts outer +. dur outer +. 0.001)
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_chrome_empty_is_valid () =
  let buf = Buffer.create 16 in
  Obs.with_sink (Obs.chrome_sink (Buffer.add_string buf)) (fun () -> ());
  match Json.parse (Buffer.contents buf) with
  | Json.Arr [] -> ()
  | _ -> Alcotest.fail "empty chrome trace should parse as []"

(* --------------------- solver events on the stream ---------------- *)

let test_explain_via_obs () =
  let db = Database.create () in
  let queries = Helpers.figure1_queries db in
  match Coordination.Explain.trace db queries with
  | Error _ -> Alcotest.fail "figure 1 program should be safe"
  | Ok report ->
    Alcotest.(check bool) "trace captured solver events" true
      (report.Coordination.Explain.events <> []);
    Alcotest.(check bool) "probes appear as typed events" true
      (List.exists
         (function
           | Coordination.Scc_algo.Probed _ -> true
           | _ -> false)
         report.Coordination.Explain.events)

(* ------------------------- flight recorder ------------------------ *)

let item_name = function
  | Obs.Span s -> s.Obs.name
  | Obs.Event e -> e.Obs.ev_name

(* Every flight-recorder test disarms on the way out: the recorder is
   process-global and later suites (executor determinism) must start
   from the disarmed state. *)
let with_recorder ?capacity f =
  Obs.Flight_recorder.arm ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight_recorder.set_dump_path None;
      Obs.Flight_recorder.disarm ())
    f

let test_ring_drop_oldest () =
  with_recorder ~capacity:4 (fun () ->
      for i = 0 to 9 do
        Obs.event (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check (list string))
        "ring keeps the newest [capacity] items, oldest first"
        [ "e6"; "e7"; "e8"; "e9" ]
        (List.map item_name (Obs.Flight_recorder.local_items ())));
  Alcotest.(check bool) "disarmed after" false (Obs.Flight_recorder.armed ());
  Alcotest.(check (list string))
    "detached ring reads empty" []
    (List.map item_name (Obs.Flight_recorder.local_items ()))

let test_ring_capacity_one () =
  with_recorder ~capacity:1 (fun () ->
      Obs.event "first";
      Alcotest.(check (list string))
        "single slot holds the only item" [ "first" ]
        (List.map item_name (Obs.Flight_recorder.local_items ()));
      Obs.event "second";
      Obs.event "third";
      Alcotest.(check (list string))
        "single slot holds the newest item" [ "third" ]
        (List.map item_name (Obs.Flight_recorder.local_items ())));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Flight_recorder.arm: capacity < 1") (fun () ->
      Obs.Flight_recorder.arm ~capacity:0 ())

let test_ring_records_through_capture () =
  (* The executor captures worker items with [exclusive]; the recorder
     must keep recording through it, and [replay] must not re-record. *)
  with_recorder (fun () ->
      let sink, drain = Obs.memory_sink () in
      Obs.exclusive sink (fun () -> Obs.event "inside-capture");
      let captured = drain () in
      Alcotest.(check int) "capture saw the item" 1 (List.length captured);
      Obs.replay captured;
      Alcotest.(check (list string))
        "ring recorded the item once, at emission"
        [ "inside-capture" ]
        (List.map item_name (Obs.Flight_recorder.local_items ())))

let test_ring_per_domain_isolation () =
  List.iter
    (fun domains ->
      with_recorder (fun () ->
          let tasks = 16 in
          let results =
            Coordination.Executor.Pool.map ~domains
              ~weights:(Array.make tasks 1) (fun i ->
                (* Record which domain actually ran the task in the
                   event NAME (ring-only recording keeps names but not
                   args); the ring the item lands in must be that same
                   domain's. *)
                Obs.event
                  (Printf.sprintf "task%d@dom%d" i (Domain.self () :> int));
                i)
          in
          Array.iter
            (function
              | Ok _ -> ()
              | Error e -> raise e)
            results;
          let rings = Obs.Flight_recorder.domains () in
          let total = ref 0 in
          List.iter
            (fun (dom, items) ->
              List.iter
                (fun item ->
                  match item with
                  | Obs.Event { Obs.ev_name = name; _ } ->
                    incr total;
                    let d =
                      match String.index_opt name '@' with
                      | Some at ->
                        int_of_string
                          (String.sub name (at + 4)
                             (String.length name - at - 4))
                      | None -> Alcotest.fail ("unexpected event " ^ name)
                    in
                    Alcotest.(check int)
                      (Printf.sprintf
                         "(domains=%d) item emitted on domain %d is in ring %d"
                         domains d dom)
                      dom d
                  | _ -> Alcotest.fail "unexpected item in ring")
                items)
            rings;
          Alcotest.(check int)
            (Printf.sprintf "(domains=%d) every task recorded exactly once"
               domains)
            tasks !total))
    [ 1; 2; 4 ]

let test_incident_dump_latch () =
  let path = Filename.temp_file "entangle-flight" ".jsonl" in
  with_recorder (fun () ->
      Obs.Flight_recorder.set_dump_path (Some path);
      let c = Obs.Counter.make "flight.incidents" in
      Obs.Counter.reset c;
      Obs.event "before-crash";
      Obs.Flight_recorder.incident "first-failure";
      let first_dump = Helpers.read_file path in
      Obs.event "after-first";
      Obs.Flight_recorder.incident "second-failure";
      Alcotest.(check string)
        "second incident does not re-dump (latched)" first_dump
        (Helpers.read_file path);
      Alcotest.(check int) "both incidents counted" 2 (Obs.Counter.value c);
      let lines =
        String.split_on_char '\n' first_dump
        |> List.filter (fun l -> String.trim l <> "")
      in
      let names =
        List.map
          (fun l -> Json.str_exn (Option.get (Json.member "name" (Json.parse l))))
          lines
      in
      Alcotest.(check (list string))
        "dump holds the window up to the first incident"
        [ "before-crash"; "flight.incident" ]
        names;
      let last = Json.parse (List.nth lines 1) in
      let reason =
        Json.member "args" last
        |> Option.get |> Json.member "reason" |> Option.get |> Json.str_exn
      in
      Alcotest.(check string) "incident carries its reason" "first-failure"
        reason);
  Sys.remove path

let test_abort_triggers_incident () =
  let path = Filename.temp_file "entangle-flight" ".jsonl" in
  with_recorder (fun () ->
      Obs.Flight_recorder.set_dump_path (Some path);
      let db = Database.create () in
      let queries = Helpers.figure1_queries db in
      let g =
        Resilient.arm { Resilient.default_config with max_probes = Some 0 }
      in
      Database.set_guard db (Some g);
      Resilient.start_solve g;
      match Coordination.Scc_algo.solve db queries with
      | Error _ -> Alcotest.fail "figure 1 program should be safe"
      | Ok outcome ->
        Alcotest.(check bool) "solve degraded under the 0-probe budget" true
          (outcome.Coordination.Scc_algo.degraded <> None);
        let dump = Helpers.read_file path in
        Alcotest.(check bool) "abort dumped the flight window" true
          (String.length dump > 0);
        Alcotest.(check bool) "window marks the incident" true
          (let lines = String.split_on_char '\n' dump in
           List.exists
             (fun l ->
               String.trim l <> ""
               && Json.member "name" (Json.parse l) = Some (Json.Str "flight.incident"))
             lines));
  Sys.remove path

(* ------------------------- metrics export ------------------------- *)

let test_metrics_json_export () =
  Obs.reset_metrics ();
  let c = Obs.Counter.make "test.export.counter" in
  Obs.Counter.add c 7;
  Obs.Gauge.set (Obs.Gauge.make "test.export.gauge") 2.5;
  let h = Obs.Histogram.make "test.export.hist" in
  for v = 1 to 10 do
    Obs.Histogram.observe h (Int64.of_int v)
  done;
  let doc = Json.parse (Obs.metrics_json ()) in
  let find section name =
    match Json.member section doc with
    | Some (Json.Arr entries) ->
      List.find_opt
        (fun e -> Json.member "name" e = Some (Json.Str name))
        entries
    | _ -> Alcotest.failf "missing %s array" section
  in
  (match find "counters" "test.export.counter" with
  | Some e ->
    Alcotest.(check (float 0.001)) "counter value" 7.0
      (Json.num_exn (Option.get (Json.member "value" e)))
  | None -> Alcotest.fail "counter missing from JSON export");
  (match find "gauges" "test.export.gauge" with
  | Some e ->
    Alcotest.(check (float 0.001)) "gauge value" 2.5
      (Json.num_exn (Option.get (Json.member "value" e)))
  | None -> Alcotest.fail "gauge missing from JSON export");
  (match find "histograms" "test.export.hist" with
  | Some e ->
    Alcotest.(check (float 0.001)) "histogram count" 10.0
      (Json.num_exn (Option.get (Json.member "count" e)));
    Alcotest.(check (float 0.001)) "histogram sum" 55.0
      (Json.num_exn (Option.get (Json.member "sum" e)));
    List.iter
      (fun q ->
        Alcotest.(check bool)
          (Printf.sprintf "histogram has %s" q)
          true
          (Json.member q e <> None))
      [ "max"; "p50"; "p95"; "p99" ]
  | None -> Alcotest.fail "histogram missing from JSON export")

let test_metrics_prometheus_export () =
  Obs.reset_metrics ();
  Obs.Counter.add (Obs.Counter.make "test.prom.counter") 3;
  Obs.Counter.incr (Obs.Counter.labeled "test.prom.counter" "lbl");
  Obs.Gauge.set (Obs.Gauge.make "test.prom.gauge") 1.5;
  let text = Obs.metrics_prometheus () in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "line is a comment or sample: %s" l)
        true
        (String.length l > 0
        && (l.[0] = '#' || String.starts_with ~prefix:"entangle_" l)))
    lines;
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter TYPE header" true
    (has "# TYPE entangle_test_prom_counter counter");
  Alcotest.(check bool) "counter sample" true
    (has "entangle_test_prom_counter 3");
  Alcotest.(check bool) "labeled sample" true
    (has "entangle_test_prom_counter{label=\"lbl\"} 1");
  Alcotest.(check bool) "gauge TYPE header" true
    (has "# TYPE entangle_test_prom_gauge gauge");
  Alcotest.(check int) "TYPE header appears once per family" 1
    (List.length
       (List.filter (( = ) "# TYPE entangle_test_prom_counter counter") lines))

(* -------------------- engine counter plumbing --------------------- *)

let test_counters_copy_diff () =
  let c = Counters.create () in
  c.Counters.probes <- 3;
  c.Counters.plan_hits <- 2;
  c.Counters.plan_misses <- 1;
  c.Counters.tuples_scanned <- 40;
  let snap = Counters.copy c in
  c.Counters.probes <- 10;
  c.Counters.tuples_scanned <- 100;
  Alcotest.(check int) "copy is independent" 3 snap.Counters.probes;
  let d = Counters.diff ~before:snap ~after:c in
  Alcotest.(check int) "diff probes" 7 d.Counters.probes;
  Alcotest.(check int) "diff plan_hits" 0 d.Counters.plan_hits;
  Alcotest.(check int) "diff tuples" 60 d.Counters.tuples_scanned;
  Alcotest.(check int) "diff leaves before untouched" 3 snap.Counters.probes;
  Alcotest.(check int) "diff leaves after untouched" 10 c.Counters.probes;
  let zero = Counters.diff ~before:c ~after:c in
  Alcotest.(check int) "self-diff is zero" 0 zero.Counters.probes;
  Alcotest.(check int) "self-diff is zero everywhere" 0
    (zero.Counters.plan_hits + zero.Counters.plan_misses
    + zero.Counters.tuples_scanned)

let test_stats_add_counters () =
  let stats = Coordination.Stats.create () in
  let d1 = Counters.create () in
  d1.Counters.probes <- 2;
  d1.Counters.plan_hits <- 1;
  d1.Counters.tuples_scanned <- 10;
  let d2 = Counters.create () in
  d2.Counters.probes <- 3;
  d2.Counters.plan_misses <- 4;
  d2.Counters.tuples_scanned <- 5;
  Coordination.Stats.add_counters stats d1;
  Coordination.Stats.add_counters stats d2;
  Alcotest.(check int) "probes accumulate" 5 stats.Coordination.Stats.db_probes;
  Alcotest.(check int) "plan hits accumulate" 1
    stats.Coordination.Stats.plan_hits;
  Alcotest.(check int) "plan misses accumulate" 4
    stats.Coordination.Stats.plan_misses;
  Alcotest.(check int) "tuples accumulate" 15
    stats.Coordination.Stats.tuples_scanned

let suite =
  [
    ("clock is monotonic", `Quick, test_clock_monotonic);
    ("span nesting and ordering", `Quick, test_span_nesting);
    ("disarmed sites cost nothing observable", `Quick, test_span_disarmed);
    ("spans close on exception", `Quick, test_span_exception);
    ("typed payloads survive the stream", `Quick, test_event_payload);
    ("histogram bucket boundaries", `Quick, test_histogram_buckets);
    ("histogram percentiles", `Quick, test_histogram_percentiles);
    ("hist spans obey the metrics gate", `Quick, test_histogram_metrics_gate);
    ("counters and labels", `Quick, test_counters);
    ("jsonl sink round-trip", `Quick, test_jsonl_roundtrip);
    ("chrome sink round-trip", `Quick, test_chrome_roundtrip);
    ("chrome empty trace is valid", `Quick, test_chrome_empty_is_valid);
    ("flight ring drops oldest", `Quick, test_ring_drop_oldest);
    ("flight ring capacity one", `Quick, test_ring_capacity_one);
    ("flight ring records through capture", `Quick,
     test_ring_records_through_capture);
    ("flight rings are per-domain", `Quick, test_ring_per_domain_isolation);
    ("incident dumps once and counts", `Quick, test_incident_dump_latch);
    ("guard abort triggers the flight dump", `Quick,
     test_abort_triggers_incident);
    ("metrics export as JSON", `Quick, test_metrics_json_export);
    ("metrics export as Prometheus text", `Quick,
     test_metrics_prometheus_export);
    ("explain reads solver events from obs", `Quick, test_explain_via_obs);
    ("engine counters: copy and diff", `Quick, test_counters_copy_diff);
    ("stats accumulate counter deltas", `Quick, test_stats_add_counters);
  ]
