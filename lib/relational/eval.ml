module Binding = Map.Make (String)

type valuation = Value.t Binding.t

exception Unknown_relation = Plan.Unknown_relation
exception Arity_mismatch = Plan.Arity_mismatch

let get_relation db (a : Cq.atom) =
  match Database.relation_opt db a.rel with
  | None -> raise (Unknown_relation a.rel)
  | Some r ->
    let expected = Relation.arity r and got = Array.length a.args in
    if got <> expected then raise (Arity_mismatch (a.rel, got, expected));
    r

(* The compiled evaluator: canonicalize, fetch or build the plan
   (per-database cache keyed by query shape), execute over an integer
   slot frame.  Returns the instance binding (variable names per slot)
   and a runner. *)
let prepare db q =
  let plan, binding = Database.prepare db q in
  let run on_frame =
    Plan.execute plan
      (Database.relation_opt db)
      (Database.counters db) binding ~on_frame
  in
  (binding, run)

(* Number of frames, stopping at [limit], without materialising any
   valuation. *)
let count_frames run limit =
  let n = ref 0 in
  run (fun _ ->
      incr n;
      !n < limit);
  !n

let snapshot_frame (binding : Plan.binding) frame =
  let b = ref Binding.empty in
  Array.iteri (fun s x -> b := Binding.add x frame.(s) !b) binding.var_names;
  !b

(* ------------------------------------------------------------------ *)
(* Probe-level observability                                          *)
(* ------------------------------------------------------------------ *)

let probe_hist =
  Obs.Histogram.make ~help:"per-probe evaluator latency (ns)" "eval.probe_ns"

let probe_count =
  Obs.Counter.make ~help:"conjunctive-query probes issued" "eval.probes"

let rels_label (q : Cq.t) =
  String.concat ","
    (List.sort_uniq String.compare
       (List.map (fun (a : Cq.atom) -> a.Cq.rel) q.atoms))

(* Solvers probe a handful of query templates over and over (the plan
   cache banks on the same fact), and probes that ground the same
   template share their relation-name strings physically even when the
   [Cq.t] values are fresh.  So the label->counter map is a small array
   scanned with pointer compares — no string is built and nothing is
   hashed on a hit.  Each new template appends once; past
   [max_label_memo] distinct templates the overflow path rebuilds the
   label per probe, which only prices workloads the plan cache already
   handles badly.  A plain ref is fine across domains: workers run with
   metrics off, and a racy append costs at most a duplicate entry for
   the same registry counter. *)
let rec same_rels (atoms : Cq.atom list) rels =
  match (atoms, rels) with
  | [], [] -> true
  | a :: atl, r :: rtl -> a.Cq.rel == r && same_rels atl rtl
  | _ -> false

let max_label_memo = 64

let label_memo : (string list * Obs.Counter.t) array ref = ref [||]

let probe_label_counter (q : Cq.t) =
  let memo = !label_memo in
  let n = Array.length memo in
  let rec find i =
    if i < n then begin
      let rels, c = memo.(i) in
      if same_rels q.atoms rels then c else find (i + 1)
    end
    else begin
      let c = Obs.Counter.labeled "eval.probes" (rels_label q) in
      if n < max_label_memo then begin
        let rels = List.map (fun (a : Cq.atom) -> a.Cq.rel) q.atoms in
        label_memo := Array.append memo [| (rels, c) |]
      end;
      c
    end
  in
  find 0

(* Resilience middleware: with a guard armed on the database, the probe
   body runs under budget checks, fault injection and retries
   ({!Resilient.probe}); transient faults strike before the body
   executes, so a retried probe never re-delivers solver callbacks.
   Disarmed, this is one field load and a branch. *)
let guarded db f =
  match Database.guard db with
  | None -> f ()
  | Some g ->
    let counters = Database.counters db in
    Resilient.probe g
      ~tuples_scanned:(fun () -> counters.Counters.tuples_scanned)
      f

(* Every probe entry point funnels through here.  Disarmed, this is the
   old code plus two branches; armed, the probe runs inside an
   "eval.probe" span carrying the relation names, plan-cache outcome
   and tuples-scanned delta, and feeds the probe-latency histogram.
   [Database.count_probe] runs inside the measured section so emulated
   round-trip latency shows up in the histogram, as it would over a
   real connection.  The Obs span sits outside the guard so retried
   attempts land inside one probe span. *)
let probed db (q : Cq.t) ~kind f =
  if not (Obs.enabled ()) then
    guarded db (fun () ->
        Database.count_probe db;
        f ())
  else if not (Obs.tracing () || Obs.metrics_on ()) then
    (* Only the flight recorder is armed.  It wants the probe span in
       its window but must stay at ~100ns per probe, so skip the label
       building, counter snapshots and per-label registry increments
       that sinks and the metrics registry pay for. *)
    Obs.with_span ~hist:probe_hist "eval.probe" (fun () ->
        guarded db (fun () ->
            Database.count_probe db;
            f ()))
  else begin
    if Obs.metrics_on () then begin
      Obs.Counter.incr probe_count;
      Obs.Counter.incr (probe_label_counter q)
    end;
    if not (Obs.tracing ()) then
      (* Registry (and possibly the recorder) armed, but no sink: the
         args thunk would never be forced, so don't build the counter
         snapshot it closes over. *)
      Obs.with_span ~hist:probe_hist "eval.probe" (fun () ->
          guarded db (fun () ->
              Database.count_probe db;
              f ()))
    else begin
      let label = rels_label q in
      let before = Database.snapshot_counters db in
      let args () =
        let d =
          Counters.diff ~before ~after:(Database.snapshot_counters db)
        in
        [
          ("rels", Obs.Str label);
          ("atoms", Obs.Int (List.length q.atoms));
          ("kind", Obs.Str kind);
          ("plan_hit", Obs.Bool (d.plan_misses = 0));
          ("tuples_scanned", Obs.Int d.tuples_scanned);
        ]
      in
      Obs.with_span ~args ~hist:probe_hist "eval.probe" (fun () ->
          guarded db (fun () ->
              Database.count_probe db;
              f ()))
    end
  end

let solve db (q : Cq.t) ~on_solution =
  probed db q ~kind:"solve" @@ fun () ->
  let binding, run = prepare db q in
  run (fun frame -> on_solution (snapshot_frame binding frame))

let find_first db q =
  let result = ref None in
  solve db q ~on_solution:(fun b ->
      result := Some b;
      false);
  !result

let satisfiable db q =
  probed db q ~kind:"satisfiable" @@ fun () ->
  let _, run = prepare db q in
  count_frames run 1 > 0

let find_all ?limit db q =
  let results = ref [] in
  let n = ref 0 in
  let continue_after () =
    incr n;
    match limit with None -> true | Some l -> !n < l
  in
  solve db q ~on_solution:(fun b ->
      results := b :: !results;
      continue_after ());
  List.rev !results

let count db q =
  probed db q ~kind:"count" @@ fun () ->
  let _, run = prepare db q in
  count_frames run max_int

let distinct_projections db q vars =
  let qvars = Cq.variables q in
  List.iter
    (fun x ->
      if not (List.mem x qvars) then
        invalid_arg
          (Printf.sprintf "Eval.distinct_projections: %s not in query" x))
    vars;
  probed db q ~kind:"distinct" @@ fun () ->
  let binding, run = prepare db q in
  (* Project straight out of the slot frame. *)
  let slot_of x =
    let slot = ref (-1) in
    Array.iteri
      (fun s y -> if String.equal x y then slot := s)
      binding.Plan.var_names;
    assert (!slot >= 0);
    !slot
  in
  let slots = Array.of_list (List.map slot_of vars) in
  let acc = ref Tuple.Set.empty in
  run (fun frame ->
      let t = Array.map (fun s -> frame.(s)) slots in
      acc := Tuple.Set.add t !acc;
      true);
  !acc

let check_ground db q =
  if not (Cq.is_ground q) then
    invalid_arg "Eval.check_ground: query has variables";
  probed db q ~kind:"check_ground" @@ fun () ->
  List.for_all
    (fun (a : Cq.atom) ->
      let r = get_relation db a in
      let t = Array.map (function Term.Const v -> v | Term.Var _ -> assert false) a.args in
      Relation.mem r t)
    q.atoms

let pp_valuation ppf b =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, v) -> Format.fprintf ppf "%s -> %a" x Value.pp v))
    (Binding.bindings b)
