type t = {
  mutable db_probes : int;
  mutable graph_ns : int64;
  mutable unify_ns : int64;
  mutable ground_ns : int64;
  mutable total_ns : int64;
  mutable commit_ns : int64;
  mutable admit_ns : int64;
  mutable candidates : int;
  mutable grounded_members : int;
  mutable cleaning_rounds : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable tuples_scanned : int;
}

let create () =
  {
    db_probes = 0;
    graph_ns = 0L;
    unify_ns = 0L;
    ground_ns = 0L;
    total_ns = 0L;
    commit_ns = 0L;
    admit_ns = 0L;
    candidates = 0;
    grounded_members = 0;
    cleaning_rounds = 0;
    plan_hits = 0;
    plan_misses = 0;
    tuples_scanned = 0;
  }

(* The one canonical fold of one record into another.  Anything that
   accumulates solver statistics (the online engine, batch drivers) must
   go through here: a field added to [t] that is not summed below is a
   compile error only in this function, not silently dropped at every
   hand-rolled copy site. *)
let merge ~(into : t) (from : t) =
  into.db_probes <- into.db_probes + from.db_probes;
  into.graph_ns <- Int64.add into.graph_ns from.graph_ns;
  into.unify_ns <- Int64.add into.unify_ns from.unify_ns;
  into.ground_ns <- Int64.add into.ground_ns from.ground_ns;
  into.total_ns <- Int64.add into.total_ns from.total_ns;
  into.commit_ns <- Int64.add into.commit_ns from.commit_ns;
  into.admit_ns <- Int64.add into.admit_ns from.admit_ns;
  into.candidates <- into.candidates + from.candidates;
  into.grounded_members <- into.grounded_members + from.grounded_members;
  into.cleaning_rounds <- into.cleaning_rounds + from.cleaning_rounds;
  into.plan_hits <- into.plan_hits + from.plan_hits;
  into.plan_misses <- into.plan_misses + from.plan_misses;
  into.tuples_scanned <- into.tuples_scanned + from.tuples_scanned

let add_counters stats (d : Relational.Counters.t) =
  stats.db_probes <- stats.db_probes + d.probes;
  stats.plan_hits <- stats.plan_hits + d.plan_hits;
  stats.plan_misses <- stats.plan_misses + d.plan_misses;
  stats.tuples_scanned <- stats.tuples_scanned + d.tuples_scanned

let ms ns = Int64.to_float ns /. 1e6

let pp ppf s =
  Format.fprintf ppf
    "probes=%d graph=%.3fms unify=%.3fms ground=%.3fms total=%.3fms \
     commit=%.3fms admit=%.3fms candidates=%d grounded_members=%d \
     cleaning_rounds=%d plan_hits=%d plan_misses=%d tuples_scanned=%d"
    s.db_probes (ms s.graph_ns) (ms s.unify_ns) (ms s.ground_ns)
    (ms s.total_ns) (ms s.commit_ns) (ms s.admit_ns) s.candidates
    s.grounded_members
    s.cleaning_rounds s.plan_hits s.plan_misses s.tuples_scanned
