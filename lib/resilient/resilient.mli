(** Per-solve evaluation budgets.

    A served request, or a [solve] run, may bound how much evaluation
    work it spends: probe attempts, tuples scanned, and wall-clock time
    on the {!Obs.now_ns} monotonic clock.  A guard checks the budgets
    before every probe and, when one has run out, raises the typed
    {!Abort} from inside the probe.  Every solver catches it at its
    work loop and returns a {e degraded} outcome — the candidates found
    so far plus a {!degradation} describing what went unprobed —
    instead of discarding completed work.

    A guard is {e armed} onto a database with
    [Relational.Database.set_guard]; with no guard installed the entire
    layer costs one field load and a branch per probe. *)

(** Which budget ran out. *)
type error =
  | Max_probes  (** probe-attempt budget *)
  | Max_tuples  (** tuples-scanned budget *)
  | Deadline    (** per-solve wall-clock deadline *)

exception Abort of error
(** Raised from inside a probe when a budget has run out.  Solvers
    catch this at their component/root/value loop and degrade. *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** {1 Guards} *)

type t
(** A guard: the budgets plus the usage of the current solve. *)

val arm : ?max_probes:int -> ?max_tuples:int -> ?deadline_ns:int64 -> unit -> t
(** A guard with the given budgets (an omitted one is unlimited), its
    solve already started. *)

val start_solve : t -> unit
(** Reset the per-solve budget and restart the deadline clock.  Call
    once before handing the database to a solver; nested solver calls
    share the enclosing budget. *)

val probe : t -> tuples_scanned:(unit -> int) -> (unit -> 'a) -> 'a
(** [probe t ~tuples_scanned f] checks the budgets, counts one attempt
    and runs [f].  The tuple budget meters [tuples_scanned ()] from its
    value at the solve's first probe.  Exceptions raised by [f]
    propagate untouched.
    @raise Abort when a budget has run out; [f] does not run then. *)

(** {1 Degradation} *)

type degradation = {
  reason : error;
  unprobed : int list list;
      (** work items the solver never evaluated, as groups of query
          indexes (components, roots, subset masks — solver-specific) *)
  note : string;  (** one-line human summary *)
}

val degraded : ?unprobed:int list list -> ?note:string -> error -> degradation

val pp_degradation : Format.formatter -> degradation -> unit
