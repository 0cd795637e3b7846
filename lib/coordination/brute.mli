(** Exact (exponential) search for coordinating sets.

    Ground truth for tests and for the hardness reductions: enumerates
    subsets of the query set and, within a subset, backtracks over which
    head atom serves each postcondition (so it handles unsafe sets, which
    the deterministic {!Entangled.Combine.unify_set} cannot).  Guarded to
    small inputs. *)

open Relational
open Entangled

val max_queries : int
(** Inputs larger than this raise [Invalid_argument] (subset enumeration
    is exponential). *)

val exists_coordinating_set : ?stats:Stats.t -> Database.t -> Query.t array -> bool
(** Is there any non-empty coordinating subset?  The queries must be
    renamed apart ({!Query.rename_set}).  When [stats] is given, the
    call's duration and engine-counter deltas (probes, plan cache,
    tuples scanned) are folded into it. *)

val maximum : ?stats:Stats.t -> Database.t -> Query.t array -> Solution.t option
(** A maximum-size coordinating set, or [None] when no subset
    coordinates.  This is the (NP-hard) EntangledMax problem of
    Definition 5, solved exactly. *)

type outcome = {
  solution : Solution.t option;  (** maximum coordinating set found *)
  stats : Stats.t;
  degraded : Resilient.degradation option;
      (** [Some _] when an armed guard aborted the enumeration; the
          degradation lists (a prefix of) the subsets never probed *)
}

val solve : Database.t -> Query.t array -> outcome
(** Like {!maximum} but resilient: an armed-guard abort
    ({!Resilient.Abort}) is caught and reported as a degraded outcome
    instead of escaping.  The legacy entry points above let the abort
    propagate to the caller. *)

val all_coordinating_subsets :
  ?stats:Stats.t -> Database.t -> Query.t array -> int list list
(** Every coordinating subset (as sorted index lists), smallest first —
    exhaustive, for property tests on tiny instances. *)
