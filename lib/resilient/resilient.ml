type budget_kind = Max_probes | Max_tuples | Deadline

type error =
  | Timeout of { limit_ns : int64 }
  | Budget_exhausted of budget_kind
  | Probe_failed of { attempts : int; permanent : bool }

exception Abort of error

let pp_error ppf = function
  | Timeout { limit_ns } ->
    Format.fprintf ppf "probe timeout (limit %.3f ms)"
      (Int64.to_float limit_ns /. 1e6)
  | Budget_exhausted Max_probes -> Format.fprintf ppf "probe budget exhausted"
  | Budget_exhausted Max_tuples ->
    Format.fprintf ppf "tuple-scan budget exhausted"
  | Budget_exhausted Deadline -> Format.fprintf ppf "deadline exceeded"
  | Probe_failed { attempts; permanent } ->
    Format.fprintf ppf "probe failed after %d attempt%s (%s)" attempts
      (if attempts = 1 then "" else "s")
      (if permanent then "permanent fault" else "retries exhausted")

let error_to_string e = Format.asprintf "%a" pp_error e

(* ---------------------------- Config ------------------------------ *)

type fault_config = {
  fault_seed : int;
  transient_rate : float;
  permanent_rate : float;
  latency_rate : float;
  latency_ns : int64;
}

let fault_defaults =
  {
    fault_seed = 0;
    transient_rate = 0.1;
    permanent_rate = 0.0;
    latency_rate = 0.0;
    latency_ns = 0L;
  }

type config = {
  max_probes : int option;
  max_tuples : int option;
  deadline_ns : int64 option;
  probe_timeout_ns : int64 option;
  max_attempts : int;
  backoff_base_ns : int64;
  backoff_jitter : float;
  faults : fault_config option;
}

let default_config =
  {
    max_probes = None;
    max_tuples = None;
    deadline_ns = None;
    probe_timeout_ns = None;
    max_attempts = 4;
    backoff_base_ns = 1_000_000L;
    backoff_jitter = 0.5;
    faults = None;
  }

(* ----------------------------- Guards ----------------------------- *)

(* Internal mutable accounting; [usage] snapshots it immutably. *)
type accounting = {
  mutable a_attempts : int;
  mutable a_probes_ok : int;
  mutable a_retries : int;
  mutable a_transient : int;
  mutable a_permanent : int;
  mutable a_injected_timeouts : int;
  mutable a_backoff_ns : int64;
  mutable a_injected_latency_ns : int64;
}

type t = {
  cfg : config;
  (* No limits, no faults: probes need only success/attempt accounting,
     so the guard skips budget checks, injection and clock reads. *)
  passthrough : bool;
  acc : accounting;
  mutable rng : Prng.t;
  mutable start_ns : int64;
  (* Simulated time charged against the deadline: injected latency and
     backoff are accounted, not slept, so chaos runs stay fast and
     deterministic. *)
  mutable virtual_ns : int64;
  (* tuples_scanned at the first guarded probe after [start_solve]; the
     tuple budget meters the delta. *)
  mutable tuples_base : int option;
}

type usage = {
  attempts : int;
  probes_ok : int;
  retries : int;
  transient_faults : int;
  permanent_faults : int;
  injected_timeouts : int;
  backoff_ns : int64;
  injected_latency_ns : int64;
}

let seed_of cfg =
  match cfg.faults with Some f -> f.fault_seed | None -> 0

let start_solve g =
  g.acc.a_attempts <- 0;
  g.acc.a_probes_ok <- 0;
  g.acc.a_retries <- 0;
  g.acc.a_transient <- 0;
  g.acc.a_permanent <- 0;
  g.acc.a_injected_timeouts <- 0;
  g.acc.a_backoff_ns <- 0L;
  g.acc.a_injected_latency_ns <- 0L;
  g.rng <- Prng.create (seed_of g.cfg);
  g.start_ns <- Obs.now_ns ();
  g.virtual_ns <- 0L;
  g.tuples_base <- None

let arm cfg =
  if cfg.max_attempts < 1 then
    invalid_arg "Resilient.arm: max_attempts must be >= 1";
  if cfg.backoff_jitter < 0.0 || cfg.backoff_jitter > 1.0 then
    invalid_arg "Resilient.arm: backoff_jitter outside [0, 1]";
  (match cfg.faults with
  | None -> ()
  | Some f ->
    let bad r = r < 0.0 || r > 1.0 in
    if bad f.transient_rate || bad f.permanent_rate || bad f.latency_rate then
      invalid_arg "Resilient.arm: fault rates must lie in [0, 1]");
  let g =
    {
      cfg;
      passthrough =
        cfg.max_probes = None && cfg.max_tuples = None
        && cfg.deadline_ns = None
        && cfg.probe_timeout_ns = None
        && cfg.faults = None;
      acc =
        {
          a_attempts = 0;
          a_probes_ok = 0;
          a_retries = 0;
          a_transient = 0;
          a_permanent = 0;
          a_injected_timeouts = 0;
          a_backoff_ns = 0L;
          a_injected_latency_ns = 0L;
        };
      rng = Prng.create (seed_of cfg);
      start_ns = Obs.now_ns ();
      virtual_ns = 0L;
      tuples_base = None;
    }
  in
  start_solve g;
  g

let config g = g.cfg

let usage g =
  {
    attempts = g.acc.a_attempts;
    probes_ok = g.acc.a_probes_ok;
    retries = g.acc.a_retries;
    transient_faults = g.acc.a_transient;
    permanent_faults = g.acc.a_permanent;
    injected_timeouts = g.acc.a_injected_timeouts;
    backoff_ns = g.acc.a_backoff_ns;
    injected_latency_ns = g.acc.a_injected_latency_ns;
  }

let pp_usage ppf u =
  Format.fprintf ppf
    "%d attempts, %d ok, %d retries, faults %d transient / %d permanent / %d \
     timeout, backoff %.3f ms"
    u.attempts u.probes_ok u.retries u.transient_faults u.permanent_faults
    u.injected_timeouts
    (Int64.to_float u.backoff_ns /. 1e6)

let elapsed_ns g =
  Int64.add (Int64.sub (Obs.now_ns ()) g.start_ns) g.virtual_ns

(* ---------------------------- Metrics ----------------------------- *)

(* Registered lazily — on the first armed increment — so unguarded runs
   never add zero-valued resilient.* lines to a metrics dump. *)
let c_attempts =
  lazy (Obs.Counter.make ~help:"guarded probe attempts" "resilient.attempts")

let c_retries =
  lazy
    (Obs.Counter.make ~help:"probe re-attempts after transient faults"
       "resilient.retries")

let c_faults =
  lazy (Obs.Counter.make ~help:"injected faults" "resilient.faults")

let c_aborts =
  lazy (Obs.Counter.make ~help:"solves cut short by the guard" "resilient.aborts")

let h_backoff =
  lazy (Obs.Histogram.make ~help:"per-retry backoff (ns)" "resilient.backoff_ns")

let count c = if Obs.metrics_on () then Obs.Counter.incr (Lazy.force c)

let count_fault label =
  if Obs.metrics_on () then begin
    Obs.Counter.incr (Lazy.force c_faults);
    Obs.Counter.incr (Obs.Counter.labeled "resilient.faults" label)
  end

let abort err =
  count c_aborts;
  (* Every degraded outcome funnels through this one raise site, so it
     is where the flight recorder freezes its window: the ring holds
     exactly the moments leading up to the abort. *)
  Obs.Flight_recorder.incident (error_to_string err);
  raise (Abort err)

(* ----------------------------- Probes ----------------------------- *)

let check_budget g ~tuples_scanned =
  (match g.cfg.max_probes with
  | Some m when g.acc.a_attempts >= m -> abort (Budget_exhausted Max_probes)
  | Some _ | None -> ());
  (match g.cfg.max_tuples with
  | Some m ->
    let base = Option.value ~default:0 g.tuples_base in
    if tuples_scanned () - base >= m then abort (Budget_exhausted Max_tuples)
  | None -> ());
  match g.cfg.deadline_ns with
  | Some d when elapsed_ns g >= d -> abort (Budget_exhausted Deadline)
  | Some _ | None -> ()

(* One injector decision per attempt.  Draws happen in a fixed order
   (transient, permanent, latency) so a given seed replays the same
   schedule run after run. *)
type decision = Fault_transient | Fault_permanent | Run of int64

let inject g =
  match g.cfg.faults with
  | None -> Run 0L
  | Some f ->
    if f.transient_rate > 0.0 && Prng.float g.rng < f.transient_rate then
      Fault_transient
    else if f.permanent_rate > 0.0 && Prng.float g.rng < f.permanent_rate then
      Fault_permanent
    else if f.latency_rate > 0.0 && Prng.float g.rng < f.latency_rate then
      Run f.latency_ns
    else Run 0L

let backoff_ns g retry_index =
  let shift = min retry_index 20 in
  let base = Int64.shift_left g.cfg.backoff_base_ns shift in
  let j = g.cfg.backoff_jitter in
  if j = 0.0 || base = 0L then base
  else begin
    (* Uniform in [base*(1-j), base*(1+j)]. *)
    let b = Int64.to_float base in
    let u = Prng.float g.rng in
    Int64.of_float (b *. (1.0 -. j +. (2.0 *. j *. u)))
  end

let probe_slow g ~tuples_scanned f =
  (match g.tuples_base with
  | None -> g.tuples_base <- Some (tuples_scanned ())
  | Some _ -> ());
  let cfg = g.cfg in
  let rec attempt tries =
    check_budget g ~tuples_scanned;
    g.acc.a_attempts <- g.acc.a_attempts + 1;
    count c_attempts;
    let made = tries + 1 in
    match inject g with
    | Fault_permanent ->
      g.acc.a_permanent <- g.acc.a_permanent + 1;
      count_fault "permanent";
      abort (Probe_failed { attempts = made; permanent = true })
    | Fault_transient ->
      g.acc.a_transient <- g.acc.a_transient + 1;
      count_fault "transient";
      retry made
    | Run injected -> (
      if injected > 0L then begin
        g.virtual_ns <- Int64.add g.virtual_ns injected;
        g.acc.a_injected_latency_ns <-
          Int64.add g.acc.a_injected_latency_ns injected
      end;
      match cfg.probe_timeout_ns with
      | Some limit when injected >= limit ->
        (* The simulated round trip blew the timeout before the reply:
           treated as transient (the retry may draw a fast path). *)
        g.acc.a_injected_timeouts <- g.acc.a_injected_timeouts + 1;
        count_fault "timeout";
        retry made
      | _ ->
        (match cfg.probe_timeout_ns with
        | None ->
          (* No timeout: skip the two clock reads around the body. *)
          let r = f () in
          g.acc.a_probes_ok <- g.acc.a_probes_ok + 1;
          r
        | Some limit ->
          let t0 = Obs.now_ns () in
          let r = f () in
          let dur = Int64.sub (Obs.now_ns ()) t0 in
          if dur > limit then
            (* The probe genuinely ran past its limit; retrying would
               re-deliver its solution callbacks, so this aborts. *)
            abort (Timeout { limit_ns = limit });
          g.acc.a_probes_ok <- g.acc.a_probes_ok + 1;
          r))
  and retry made =
    if made >= cfg.max_attempts then
      abort (Probe_failed { attempts = made; permanent = false })
    else begin
      g.acc.a_retries <- g.acc.a_retries + 1;
      count c_retries;
      let b = backoff_ns g (made - 1) in
      g.acc.a_backoff_ns <- Int64.add g.acc.a_backoff_ns b;
      g.virtual_ns <- Int64.add g.virtual_ns b;
      if Obs.metrics_on () then Obs.Histogram.observe (Lazy.force h_backoff) b;
      attempt made
    end
  in
  attempt 0

let probe g ~tuples_scanned f =
  if g.passthrough then begin
    g.acc.a_attempts <- g.acc.a_attempts + 1;
    count c_attempts;
    let r = f () in
    g.acc.a_probes_ok <- g.acc.a_probes_ok + 1;
    r
  end
  else probe_slow g ~tuples_scanned f

(* -------------------------- Degradation --------------------------- *)

type degradation = {
  reason : error;
  unprobed : int list list;
  note : string;
}

let degraded ?(unprobed = []) ?(note = "") reason = { reason; unprobed; note }

let pp_degradation ppf d =
  Format.fprintf ppf "%a" pp_error d.reason;
  if d.unprobed <> [] then
    Format.fprintf ppf "; %d work item%s unprobed"
      (List.length d.unprobed)
      (if List.length d.unprobed = 1 then "" else "s");
  if d.note <> "" then Format.fprintf ppf " (%s)" d.note

(* --------------------------- Disk faults -------------------------- *)

module Disk_fault = struct
  type kind =
    | Torn_write of { keep : int }
    | Lost_tail of { keep : int }
    | Bit_flip of { offset : int; mask : int }

  let pp ppf = function
    | Torn_write { keep } -> Format.fprintf ppf "torn write (keep %d)" keep
    | Lost_tail { keep } -> Format.fprintf ppf "lost tail (keep %d)" keep
    | Bit_flip { offset; mask } ->
      Format.fprintf ppf "bit flip (byte %d mask 0x%02x)" offset mask

  let draw rng ~protect ~size =
    if size <= protect then invalid_arg "Disk_fault.draw: nothing to corrupt";
    match Prng.int rng 3 with
    | 0 -> Torn_write { keep = Prng.int_in_range rng ~lo:protect ~hi:(size - 1) }
    | 1 -> Lost_tail { keep = protect }
    | _ ->
      Bit_flip
        {
          offset = Prng.int_in_range rng ~lo:protect ~hi:(size - 1);
          mask = 1 lsl Prng.int rng 8;
        }

  let apply ~path kind =
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let data =
      match kind with
      | Torn_write { keep } | Lost_tail { keep } ->
        String.sub data 0 (min keep (String.length data))
      | Bit_flip { offset; mask } ->
        if offset >= String.length data then data
        else
          String.mapi
            (fun i c -> if i = offset then Char.chr (Char.code c lxor mask) else c)
            data
    in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
        path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data)
end
