type error = Max_probes | Max_tuples | Deadline

exception Abort of error

let pp_error ppf = function
  | Max_probes -> Format.fprintf ppf "probe budget exhausted"
  | Max_tuples -> Format.fprintf ppf "tuple-scan budget exhausted"
  | Deadline -> Format.fprintf ppf "deadline exceeded"

let error_to_string e = Format.asprintf "%a" pp_error e

(* ----------------------------- Guards ----------------------------- *)

type t = {
  max_probes : int option;
  max_tuples : int option;
  deadline_ns : int64 option;
  mutable attempts : int;
  mutable start_ns : int64;
  (* tuples_scanned at the first probe after [start_solve] (-1 before
     it); the tuple budget meters the delta. *)
  mutable tuples_base : int;
}

let start_solve g =
  g.attempts <- 0;
  g.start_ns <- Obs.now_ns ();
  g.tuples_base <- -1

let arm ?max_probes ?max_tuples ?deadline_ns () =
  {
    max_probes;
    max_tuples;
    deadline_ns;
    attempts = 0;
    start_ns = Obs.now_ns ();
    tuples_base = -1;
  }

(* ---------------------------- Metrics ----------------------------- *)

(* Declared, so unguarded runs never add zero-valued resilient.* lines
   to a metrics dump. *)
let c_attempts =
  Obs.Counter.declare ~help:"guarded probe attempts" "resilient.attempts"

let c_aborts =
  Obs.Counter.declare ~help:"solves cut short by the guard" "resilient.aborts"

let abort err =
  Obs.Counter.incr c_aborts;
  (* Every degraded outcome funnels through this one raise site, so it
     is where the flight recorder freezes its window: the ring holds
     exactly the moments leading up to the abort. *)
  Obs.Flight_recorder.incident (error_to_string err);
  raise (Abort err)

(* ----------------------------- Probes ----------------------------- *)

let probe g ~tuples_scanned f =
  (match g.max_probes with
  | Some m when g.attempts >= m -> abort Max_probes
  | Some _ | None -> ());
  (match g.max_tuples with
  | Some m ->
    let n = tuples_scanned () in
    if g.tuples_base < 0 then g.tuples_base <- n;
    if n - g.tuples_base >= m then abort Max_tuples
  | None -> ());
  (match g.deadline_ns with
  | Some d when Int64.sub (Obs.now_ns ()) g.start_ns >= d -> abort Deadline
  | Some _ | None -> ());
  g.attempts <- g.attempts + 1;
  Obs.Counter.incr c_attempts;
  f ()

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
