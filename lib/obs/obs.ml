(* Structured tracing and metrics for the whole engine.

   Design constraints, in order:

   1. Near-zero cost when disarmed.  Every instrumentation site guards
      on one mutable boolean; with no sink installed and metrics off,
      [with_span] is a load, a branch and a tail call.  Argument lists
      are thunks, evaluated only when a sink actually consumes them.
   2. Zero external dependencies.  The monotonic clock is a 10-line C
      stub (CLOCK_MONOTONIC); JSON is streamed by hand, with strings
      quoted by the tree's one escaper (Json.add_string); sinks write
      through a plain [string -> unit] so they work over files, buffers
      and pipes alike.
   3. One event stream.  Typed solver events ride along as extensible
      [payload]s, so `--explain` (which needs the typed data) and
      `--trace` (which needs the serialized view) are fed by the same
      emission points and cannot drift. *)

external now_ns : unit -> int64 = "entangle_obs_monotonic_ns"

(* Unboxed variant for the recording hot path: no caml_copy_int64, no
   minor allocation, safe to call at every span open/close. *)
external now_ns_int : unit -> int = "entangle_obs_monotonic_ns_int" [@@noalloc]

type arg = Str of string | Int of int | Float of float | Bool of bool

type payload = ..

type payload += No_payload

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  args : (string * arg) list;
}

type event = {
  ev_name : string;
  ev_ts_ns : int64;
  ev_depth : int;
  ev_args : (string * arg) list;
  ev_payload : payload;
}

type item = Span of span | Event of event

type sink = {
  on_span : span -> unit;
  on_event : event -> unit;
  on_close : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Registry of metrics                                                *)
(* ------------------------------------------------------------------ *)

(* The gate of every declared metric and span histogram.  A registry
   holds every handle, made or declared; [find] and the dumps see the
   listed ones. *)
let metrics_armed = ref false

module Histogram = struct
  (* Log2-bucketed: bucket 0 counts values <= 0, bucket i >= 1 counts
     values in [2^(i-1), 2^i).  63 value buckets cover every positive
     int64. *)
  let bucket_count = 64

  (* [sum] and [max_v] are plain ints: the histograms observe
     nanosecond durations, and 62 bits of nanoseconds is ~146 years —
     keeping them unboxed lets [observe_i] run without allocating. *)
  type t = {
    h_name : string;
    h_help : string;
    h_gated : bool;
    mutable h_listed : bool;
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_v : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let get ~gated help name =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_gated = gated;
          h_listed = false;
          buckets = Array.make bucket_count 0;
          count = 0;
          sum = 0;
          max_v = min_int;
        }
      in
      Hashtbl.add registry name h;
      h

  let make ?(help = "") name =
    let h = get ~gated:false help name in
    h.h_listed <- true;
    h

  let declare ?(help = "") name = get ~gated:true help name

  let find name =
    match Hashtbl.find_opt registry name with
    | Some h when h.h_listed -> Some h
    | Some _ | None -> None

  let bucket_of v =
    if Int64.compare v 0L <= 0 then 0
    else begin
      (* Positive int64 values fit 63 bits; index = floor(log2 v) + 1. *)
      let rec bits acc v = if v = 0L then acc else bits (acc + 1) (Int64.shift_right_logical v 1) in
      bits 0 v
    end

  (* Inclusive lower / exclusive upper value bound of a bucket. *)
  let bucket_bounds i =
    if i = 0 then (Int64.min_int, 1L)
    else
      ( Int64.shift_left 1L (i - 1),
        if i >= 63 then Int64.max_int else Int64.shift_left 1L i )

  (* Unboxed observation path: every armed span funnels through here,
     so it must not box.  [bucket_of_i] agrees with {!bucket_of} on
     every value an [int] can hold. *)
  let bucket_of_i v =
    if v <= 0 then 0
    else begin
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      bits 0 v
    end

  let observe_i h v =
    if !metrics_armed || not h.h_gated then begin
      h.h_listed <- true;
      let i = bucket_of_i v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum + v;
      if v > h.max_v then h.max_v <- v
    end

  let observe h v = observe_i h (Int64.to_int v)

  let count h = h.count

  let sum h = Int64.of_int h.sum

  let max_value h = if h.count = 0 then 0L else Int64.of_int h.max_v

  let buckets h = Array.copy h.buckets

  (* Percentile estimate: find the bucket holding the rank-th
     observation and interpolate linearly inside it.  Within one
     power-of-two bracket the estimate is off by at most 2x, which is
     plenty for latency reporting. *)
  let percentile h p =
    if h.count = 0 then 0.0
    else begin
      let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
      let rank = p *. float_of_int h.count in
      let rank = if rank < 1.0 then 1.0 else rank in
      let acc = ref 0.0 in
      let result = ref 0.0 in
      (try
         for i = 0 to bucket_count - 1 do
           let n = float_of_int h.buckets.(i) in
           if n > 0.0 then begin
             if !acc +. n >= rank then begin
               let lo, hi = bucket_bounds i in
               let lo = if i = 0 then 0.0 else Int64.to_float lo in
               let hi = Int64.to_float hi in
               let frac = (rank -. !acc) /. n in
               result := lo +. ((hi -. lo) *. frac);
               raise Exit
             end;
             acc := !acc +. n
           end
         done;
         result := Int64.to_float (max_value h)
       with Exit -> ());
      (* Never report beyond the observed maximum. *)
      let cap = Int64.to_float (max_value h) in
      if !result > cap then cap else !result
    end

  let reset h =
    Array.fill h.buckets 0 bucket_count 0;
    h.count <- 0;
    h.sum <- 0;
    h.max_v <- min_int
end

module Counter = struct
  type t = {
    c_name : string;
    c_help : string;
    c_gated : bool;
    mutable c_listed : bool;
    mutable value : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let get ~gated help name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c =
        { c_name = name; c_help = help; c_gated = gated; c_listed = false; value = 0 }
      in
      Hashtbl.add registry name c;
      c

  let make ?(help = "") name =
    let c = get ~gated:false help name in
    c.c_listed <- true;
    c

  let declare ?(help = "") ?(always = false) name =
    get ~gated:(not always) help name

  (* Labeled counters share the registry under "name{label}" keys, so
     one dump lists the family together. *)
  let labeled ?help name label = make ?help (name ^ "{" ^ label ^ "}")

  let find name =
    match Hashtbl.find_opt registry name with
    | Some c when c.c_listed -> Some c
    | Some _ | None -> None

  let add c n =
    if !metrics_armed || not c.c_gated then begin
      c.c_listed <- true;
      c.value <- c.value + n
    end

  let incr c = add c 1

  let value c = c.value

  let reset c = c.value <- 0
end

module Gauge = struct
  (* Last-write-wins instantaneous values (pool sizes, cache sizes,
     ratios) in the same process-wide registry discipline as counters. *)
  type t = { g_name : string; g_help : string; mutable g_value : float }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?(help = "") name =
    match Hashtbl.find_opt registry name with
    | Some g -> g
    | None ->
      let g = { g_name = name; g_help = help; g_value = 0.0 } in
      Hashtbl.add registry name g;
      g

  let find name = Hashtbl.find_opt registry name

  let set g v = g.g_value <- v

  let add g v = g.g_value <- g.g_value +. v

  let value g = g.g_value

  let reset g = g.g_value <- 0.0
end

let reset_metrics () =
  Hashtbl.iter (fun _ h -> Histogram.reset h) Histogram.registry;
  Hashtbl.iter (fun _ c -> Counter.reset c) Counter.registry;
  Hashtbl.iter (fun _ g -> Gauge.reset g) Gauge.registry

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring buffers                                       *)
(* ------------------------------------------------------------------ *)

(* A fixed-capacity drop-oldest buffer of items.

   An array of preallocated mutable slot records, not an [item array]
   and not parallel scalar arrays: a push overwrites the fields of one
   slot in place and allocates nothing, so the always-armed recorder
   never grows the minor heap — and because one slot is one ~64-byte
   record, a push dirties a single cache line where a struct-of-arrays
   layout streams through seven.  Timestamps are stored as plain [int]
   nanoseconds (63 bits outlive the hardware) so no field is boxed;
   the [item] view is only materialised at dump time. *)
type fslot = {
  mutable s_kind : int;   (* 0 span, 1 event *)
  mutable s_name : string;
  mutable s_ts : int;     (* span start / event timestamp, ns *)
  mutable s_dur : int;    (* span duration, ns; 0 for events *)
  mutable s_depth : int;
  mutable s_args : (string * arg) list;
  mutable s_payload : payload;
}

type fring = {
  fr_cap : int;
  fr_slots : fslot array;
  mutable fr_head : int;  (* index of the oldest item *)
  mutable fr_len : int;
}

let ring_slot r =
  let i = (r.fr_head + r.fr_len) mod r.fr_cap in
  if r.fr_len = r.fr_cap then r.fr_head <- (r.fr_head + 1) mod r.fr_cap
  else r.fr_len <- r.fr_len + 1;
  r.fr_slots.(i)

(* Timestamps arrive as plain [int] nanoseconds (from {!now_ns_int}):
   the push path must not touch boxed int64s. *)
let ring_push_span r ~name ~start_ns ~dur_ns ~depth ~args =
  let s = ring_slot r in
  s.s_kind <- 0;
  s.s_name <- name;
  s.s_ts <- start_ns;
  s.s_dur <- dur_ns;
  s.s_depth <- depth;
  s.s_args <- args;
  s.s_payload <- No_payload

let ring_push_event r ~name ~ts_ns ~depth ~args ~payload =
  let s = ring_slot r in
  s.s_kind <- 1;
  s.s_name <- name;
  s.s_ts <- ts_ns;
  s.s_dur <- 0;
  s.s_depth <- depth;
  s.s_args <- args;
  s.s_payload <- payload

(* Oldest-first snapshot, materialising [item]s from the slots. *)
let ring_items r =
  let acc = ref [] in
  for k = r.fr_len - 1 downto 0 do
    let s = r.fr_slots.((r.fr_head + k) mod r.fr_cap) in
    let it =
      if s.s_kind = 0 then
        Span
          {
            name = s.s_name;
            start_ns = Int64.of_int s.s_ts;
            dur_ns = Int64.of_int s.s_dur;
            depth = s.s_depth;
            args = s.s_args;
          }
      else
        Event
          {
            ev_name = s.s_name;
            ev_ts_ns = Int64.of_int s.s_ts;
            ev_depth = s.s_depth;
            ev_args = s.s_args;
            ev_payload = s.s_payload;
          }
    in
    acc := it :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Arming                                                             *)
(* ------------------------------------------------------------------ *)

(* [ring] is deliberately not a sink: {!tracing} must stay false when
   only the flight recorder is armed, so arming it never switches on the
   work solvers do only for a sink (building explain payloads, forcing
   args). *)
type state = {
  mutable sinks : sink list;
  mutable depth : int;
  mutable ring : fring option;
}

let st = { sinks = []; depth = 0; ring = None }

let enabled () = st.sinks <> [] || !metrics_armed || st.ring != None

let tracing () = st.sinks <> []

let metrics_on () = !metrics_armed

let set_metrics b = metrics_armed := b

(* ------------------------------------------------------------------ *)
(* Spans and events                                                   *)
(* ------------------------------------------------------------------ *)

(* The open/close pair every span goes through: no closure and no
   boxed timestamp.  With the flight recorder always armed it runs
   around every span in the engine, so it allocates only when a sink
   or the metrics registry asks for boxed values. *)
let[@inline] enter () =
  if st.sinks == [] && st.ring == None then -1
  else begin
    let d = st.depth in
    st.depth <- d + 1;
    d
  end

let close_span ?hist d name ~t0 args x =
  let t1 = now_ns_int () in
  (match hist with
  | Some h when !metrics_armed -> Histogram.observe_i h (t1 - t0)
  | Some _ | None -> ());
  if d >= 0 then begin
    st.depth <- d;
    match (st.sinks, st.ring) with
    | [], None -> ()
    | [], Some r ->
      (* Ring-only spans drop their args: forcing them is the expensive
         part of recording (it may snapshot counters or build strings),
         and the always-armed flight recorder must stay at ~100ns per
         span.  As soon as a sink is attached the full args are
         captured — and land in the ring too. *)
      ring_push_span r ~name ~start_ns:t0 ~dur_ns:(t1 - t0) ~depth:d ~args:[]
    | sinks, ring ->
      let args = args x in
      (match ring with
      | Some r ->
        ring_push_span r ~name ~start_ns:t0 ~dur_ns:(t1 - t0) ~depth:d ~args
      | None -> ());
      let s =
        {
          name;
          start_ns = Int64.of_int t0;
          dur_ns = Int64.of_int (t1 - t0);
          depth = d;
          args;
        }
      in
      List.iter (fun k -> k.on_span s) sinks
  end;
  t1

let leave_with d name ~t0 args x = close_span d name ~t0 args x

let no_args () = []

let leave d name ~t0 = close_span d name ~t0 no_args ()

let force_args = function Some f -> f () | None -> []

let with_span ?args ?hist name f =
  if
    st.sinks == [] && st.ring == None
    && not (!metrics_armed && Option.is_some hist)
  then f ()
  else begin
    let d = enter () in
    let t0 = now_ns_int () in
    match f () with
    | v ->
      ignore (close_span ?hist d name ~t0 force_args args : int);
      v
    | exception e ->
      ignore (close_span ?hist d name ~t0 force_args args : int);
      raise e
  end

let span name args f x y =
  let d = enter () in
  if d < 0 then f x y
  else begin
    let t0 = now_ns_int () in
    match f x y with
    | v ->
      ignore (close_span d name ~t0 (fun () -> args x y) () : int);
      v
    | exception e ->
      ignore (close_span d name ~t0 (fun () -> args x y) () : int);
      raise e
  end

let event ?args ?(payload = No_payload) name =
  match (st.sinks, st.ring) with
  | [], None -> ()
  | [], Some r ->
    (* Ring-only, same bargain as spans: record name, time and depth
       without forcing the args closure (solver milestones build
       member-name strings in theirs — the bulk of the armed cost).
       {!Flight_recorder.incident} pushes its reason directly, so the
       one arg a post-mortem cannot do without always survives. *)
    ring_push_event r ~name ~ts_ns:(now_ns_int ()) ~depth:st.depth ~args:[]
      ~payload
  | sinks, ring ->
    let ts = now_ns_int () and args = force_args args in
    (match ring with
    | Some r ->
      ring_push_event r ~name ~ts_ns:ts ~depth:st.depth ~args ~payload
    | None -> ());
    let e =
      {
        ev_name = name;
        ev_ts_ns = Int64.of_int ts;
        ev_depth = st.depth;
        ev_args = args;
        ev_payload = payload;
      }
    in
    List.iter (fun k -> k.on_event e) sinks

(* ------------------------------------------------------------------ *)
(* Sink management                                                    *)
(* ------------------------------------------------------------------ *)

let install sink = st.sinks <- sink :: st.sinks

let remove sink = st.sinks <- List.filter (fun s -> s != sink) st.sinks

let close sink = sink.on_close ()

let with_sink sink f =
  install sink;
  Fun.protect
    ~finally:(fun () ->
      remove sink;
      close sink)
    f

(* ------------------------------------------------------------------ *)
(* JSON plumbing (the jsonl/chrome sinks and the recorder dumps)      *)
(* ------------------------------------------------------------------ *)

let json_float b f =
  (* %.3f keeps microsecond timestamps readable; JSON numbers must not
     be NaN/inf (cannot happen for clock-derived values). *)
  Buffer.add_string b (Printf.sprintf "%.3f" f)

let json_arg b = function
  | Str s -> Json.add_string b s
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> json_float b f
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let json_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Json.add_string b k;
      Buffer.add_string b ": ";
      json_arg b v)
    args;
  Buffer.add_char b '}'

let us_of_ns ns = Int64.to_float ns /. 1e3

(* One JSONL line for [item], timestamps in microseconds after [t0]. *)
let add_jsonl_line b ~t0 item =
  let kind, name, ts_ns, dur_ns, depth, args =
    match item with
    | Span s -> ("span", s.name, s.start_ns, Some s.dur_ns, s.depth, s.args)
    | Event e -> ("event", e.ev_name, e.ev_ts_ns, None, e.ev_depth, e.ev_args)
  in
  Buffer.add_string b "{\"type\": ";
  Json.add_string b kind;
  Buffer.add_string b ", \"name\": ";
  Json.add_string b name;
  Buffer.add_string b ", \"ts_us\": ";
  json_float b (us_of_ns (Int64.sub ts_ns t0));
  Option.iter
    (fun d ->
      Buffer.add_string b ", \"dur_us\": ";
      json_float b (us_of_ns d))
    dur_ns;
  Printf.bprintf b ", \"depth\": %d" depth;
  Buffer.add_string b ", \"args\": ";
  json_args b args;
  Buffer.add_string b "}\n"

(* One Chrome trace_event object for [item]: a complete event
   [ph = "X"] for a span, an instant event [ph = "i"] for an event. *)
let add_chrome_entry b ~t0 item =
  let name, ph, ts_ns =
    match item with
    | Span s -> (s.name, "X", s.start_ns)
    | Event e -> (e.ev_name, "i", e.ev_ts_ns)
  in
  Buffer.add_string b "{\"name\": ";
  Json.add_string b name;
  Buffer.add_string b ", \"ph\": ";
  Json.add_string b ph;
  Buffer.add_string b ", \"pid\": 1, \"tid\": 1, \"ts\": ";
  json_float b (us_of_ns (Int64.sub ts_ns t0));
  (match item with
  | Span s ->
    Buffer.add_string b ", \"dur\": ";
    json_float b (us_of_ns s.dur_ns);
    Buffer.add_string b ", \"args\": ";
    json_args b s.args
  | Event e ->
    Buffer.add_string b ", \"s\": \"t\", \"args\": ";
    json_args b e.ev_args);
  Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

let memory_sink () =
  let items = ref [] in
  let sink =
    {
      on_span = (fun s -> items := Span s :: !items);
      on_event = (fun e -> items := Event e :: !items);
      on_close = (fun () -> ());
    }
  in
  (sink, fun () -> List.rev !items)

(* One JSON object per line; timestamps in microseconds since the sink
   was installed. *)
let jsonl_sink write =
  let t0 = now_ns () in
  let line item =
    let b = Buffer.create 128 in
    add_jsonl_line b ~t0 item;
    write (Buffer.contents b)
  in
  {
    on_span = (fun s -> line (Span s));
    on_event = (fun e -> line (Event e));
    on_close = (fun () -> ());
  }

(* Chrome trace_event JSON (the "JSON array format").  Load the file in
   chrome://tracing or https://ui.perfetto.dev. *)
let chrome_sink write =
  let t0 = now_ns () in
  let first = ref true in
  let entry item =
    let b = Buffer.create 128 in
    Buffer.add_string b (if !first then "[\n" else ",\n");
    first := false;
    add_chrome_entry b ~t0 item;
    write (Buffer.contents b)
  in
  {
    on_span = (fun s -> entry (Span s));
    on_event = (fun e -> entry (Event e));
    on_close =
      (fun () -> if !first then write "[\n]\n" else write "\n]\n");
  }

let jsonl_path path = Filename.check_suffix path ".jsonl"

let sink_for path write =
  if jsonl_path path then jsonl_sink write else chrome_sink write

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

module Flight_recorder = struct
  (* 1024 items x ~48 bytes of scalar slots keeps the ring's write
     footprint around 50KB — inside L2, so the always-on recorder's
     round-robin writes do not evict the evaluator's working set the
     way a multi-hundred-KB ring measurably does (observability
     ablation).  At ~50 items per solve that is still ~20 solves of
     post-mortem history. *)
  let default_capacity = 1024

  let dump_path : string option ref = ref None

  let dumped = ref false

  let c_incidents =
    Counter.declare ~always:true
      ~help:"flight-recorder incidents (aborts, crashes)" "flight.incidents"

  let armed () = st.ring != None

  let arm ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Flight_recorder.arm: capacity < 1";
    c_incidents.c_listed <- true;
    dumped := false;
    if Option.is_none st.ring then
      st.ring <-
        Some
          {
            fr_cap = capacity;
            fr_slots =
              Array.init capacity (fun _ ->
                  {
                    s_kind = 0;
                    s_name = "";
                    s_ts = 0;
                    s_dur = 0;
                    s_depth = 0;
                    s_args = [];
                    s_payload = No_payload;
                  });
            fr_head = 0;
            fr_len = 0;
          }

  let disarm () = st.ring <- None

  let set_dump_path p = dump_path := p

  let items () = match st.ring with None -> [] | Some r -> ring_items r

  let item_ts = function Span s -> s.start_ns | Event e -> e.ev_ts_ns

  (* Chrome trace_event JSON over time-sorted [items], timestamps
     rebased to the earliest. *)
  let write_chrome write items =
    let t0 = match items with [] -> 0L | it :: _ -> item_ts it in
    let b = Buffer.create 4096 in
    Buffer.add_string b "[";
    List.iteri
      (fun i it ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        add_chrome_entry b ~t0 it)
      items;
    Buffer.add_string b "\n]\n";
    write (Buffer.contents b)

  let write_jsonl write items =
    let b = Buffer.create 4096 in
    List.iter (add_jsonl_line b ~t0:0L) items;
    write (Buffer.contents b)

  let dump_to_file path =
    let items =
      List.stable_sort
        (fun a b -> Int64.compare (item_ts a) (item_ts b))
        (items ())
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        if jsonl_path path then write_jsonl (output_string oc) items
        else write_chrome (output_string oc) items)

  (* Called on the failure paths (typed Abort, degraded solve, WAL
     failure).  Marks the trigger in the ring, counts it, and dumps the
     window once per arm — the first incident's window is the one that
     explains the failure; later incidents in the same run only
     count. *)
  let incident reason =
    match st.ring with
    | None -> ()
    | Some r -> (
      Counter.incr c_incidents;
      ring_push_event r ~name:"flight.incident" ~ts_ns:(now_ns_int ())
        ~depth:st.depth
        ~args:[ ("reason", Str reason) ]
        ~payload:No_payload;
      match !dump_path with
      | Some p when not !dumped -> (
        dumped := true;
        try dump_to_file p with Sys_error _ -> ())
      | Some _ | None -> ())
end

(* ------------------------------------------------------------------ *)
(* Metrics dump                                                       *)
(* ------------------------------------------------------------------ *)

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let counters () =
  List.filter_map Counter.find (sorted_keys Counter.registry)

let histograms () =
  List.filter_map Histogram.find (sorted_keys Histogram.registry)

let gauges () =
  List.map (fun k -> Hashtbl.find Gauge.registry k) (sorted_keys Gauge.registry)

let pp_metrics ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (c : Counter.t) ->
      Format.fprintf ppf "counter %s %d@," c.Counter.c_name c.Counter.value)
    (counters ());
  List.iter
    (fun (g : Gauge.t) ->
      Format.fprintf ppf "gauge %s %g@," g.Gauge.g_name g.Gauge.g_value)
    (gauges ());
  List.iter
    (fun (h : Histogram.t) ->
      if Histogram.count h > 0 then
        Format.fprintf ppf
          "histogram %s count=%d mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus \
           max=%.1fus@,"
          h.Histogram.h_name (Histogram.count h)
          (Int64.to_float (Histogram.sum h) /. float_of_int (Histogram.count h)
          /. 1e3)
          (Histogram.percentile h 0.50 /. 1e3)
          (Histogram.percentile h 0.95 /. 1e3)
          (Histogram.percentile h 0.99 /. 1e3)
          (Int64.to_float (Histogram.max_value h) /. 1e3)
      else
        Format.fprintf ppf "histogram %s count=0@," h.Histogram.h_name)
    (histograms ());
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Registry snapshots (JSON and Prometheus text)                      *)
(* ------------------------------------------------------------------ *)

let metrics_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": [";
  List.iteri
    (fun i (c : Counter.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {\"name\": ";
      Json.add_string b c.Counter.c_name;
      Buffer.add_string b ", \"value\": ";
      Buffer.add_string b (string_of_int c.Counter.value);
      Buffer.add_char b '}')
    (counters ());
  Buffer.add_string b "\n  ],\n  \"gauges\": [";
  List.iteri
    (fun i (g : Gauge.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {\"name\": ";
      Json.add_string b g.Gauge.g_name;
      Buffer.add_string b ", \"value\": ";
      json_float b g.Gauge.g_value;
      Buffer.add_char b '}')
    (gauges ());
  Buffer.add_string b "\n  ],\n  \"histograms\": [";
  List.iteri
    (fun i (h : Histogram.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {\"name\": ";
      Json.add_string b h.Histogram.h_name;
      Buffer.add_string b
        (Printf.sprintf ", \"count\": %d, \"sum\": %Ld, \"max\": %Ld"
           (Histogram.count h) (Histogram.sum h) (Histogram.max_value h));
      Buffer.add_string b ", \"p50\": ";
      json_float b (Histogram.percentile h 0.50);
      Buffer.add_string b ", \"p95\": ";
      json_float b (Histogram.percentile h 0.95);
      Buffer.add_string b ", \"p99\": ";
      json_float b (Histogram.percentile h 0.99);
      Buffer.add_char b '}')
    (histograms ());
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Prometheus exposition text.  Registry names like "eval.probes{F,H}"
   split into a sanitised family name and an opaque [label="..."] pair;
   histograms render as summaries with quantile labels. *)
let prom_sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

let prom_split name =
  match String.index_opt name '{' with
  | Some i when name.[String.length name - 1] = '}' ->
    ( String.sub name 0 i,
      Some (String.sub name (i + 1) (String.length name - i - 2)) )
  | _ -> (name, None)

let metrics_prometheus () =
  let b = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let header base kind help =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" base help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (c : Counter.t) ->
      let raw, label = prom_split c.Counter.c_name in
      let base = "entangle_" ^ prom_sanitize raw in
      header base "counter" c.Counter.c_help;
      match label with
      | None -> Buffer.add_string b (Printf.sprintf "%s %d\n" base c.Counter.value)
      | Some l ->
        Buffer.add_string b
          (Printf.sprintf "%s{label=%S} %d\n" base l c.Counter.value))
    (counters ());
  List.iter
    (fun (g : Gauge.t) ->
      let raw, label = prom_split g.Gauge.g_name in
      let base = "entangle_" ^ prom_sanitize raw in
      header base "gauge" g.Gauge.g_help;
      match label with
      | None ->
        Buffer.add_string b (Printf.sprintf "%s %.6g\n" base g.Gauge.g_value)
      | Some l ->
        Buffer.add_string b
          (Printf.sprintf "%s{label=%S} %.6g\n" base l g.Gauge.g_value))
    (gauges ());
  List.iter
    (fun (h : Histogram.t) ->
      let base = "entangle_" ^ prom_sanitize h.Histogram.h_name in
      header base "summary" h.Histogram.h_help;
      List.iter
        (fun (q, p) ->
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"%s\"} %.3f\n" base q
               (Histogram.percentile h p)))
        [ ("0.5", 0.50); ("0.95", 0.95); ("0.99", 0.99) ];
      Buffer.add_string b
        (Printf.sprintf "%s_sum %Ld\n%s_count %d\n" base (Histogram.sum h) base
           (Histogram.count h)))
    (histograms ());
  Buffer.contents b
