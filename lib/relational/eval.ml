module Binding = Map.Make (String)

type valuation = Value.t Binding.t

exception Unknown_relation = Plan.Unknown_relation
exception Arity_mismatch = Plan.Arity_mismatch

(* The enumerating probes: the plan of [q]'s shape with a copy of its
   binding, and a runner that executes it in a fresh frame. *)
let prepare db q =
  let plan, binding = Database.prepare db q in
  let run on_frame =
    Plan.execute plan (Database.counters db) binding ~on_frame
  in
  (binding, run)

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
   handles badly. *)
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

(* Evaluation budgets: with a guard armed on the database, the probe
   body runs only if no budget has run out ({!Resilient.probe}), so an
   aborted probe never delivers solver callbacks.  Disarmed, this is
   one field load and a branch. *)
let guarded db f =
  match Database.guard db with
  | None -> f ()
  | Some g ->
    let counters = Database.counters db in
    Resilient.probe g
      ~tuples_scanned:(fun () -> counters.Counters.tuples_scanned)
      f

(* The "eval.probe" span's args: the relation names, plan-cache
   outcome and tuples-scanned delta since [before]. *)
let probe_args db (q : Cq.t) kind before () =
  let d = Counters.diff ~before ~after:(Database.snapshot_counters db) in
  [
    ("rels", Obs.Str (rels_label q));
    ("atoms", Obs.Int (List.length q.atoms));
    ("kind", Obs.Str kind);
    ("plan_hit", Obs.Bool (d.plan_misses = 0));
    ("tuples_scanned", Obs.Int d.tuples_scanned);
  ]

let counted db f () =
  Database.count_probe db;
  f ()

(* Every probe entry point funnels through here.  Disarmed, this is the
   old code plus two branches; armed, the probe runs inside an
   "eval.probe" span and feeds the probe counters and the latency
   histogram when metrics are on.  Only a sink reads the span's args,
   so only a sink pays for the counter snapshot they diff against.
   [Database.count_probe] runs inside the measured section so emulated
   round-trip latency shows up in the histogram, as it would over a
   real connection.  The span sits outside the guard so a budget abort
   lands inside the probe span it cut short. *)
let probed db (q : Cq.t) ~kind f =
  if not (Obs.enabled ()) then guarded db (counted db f)
  else begin
    if Obs.metrics_on () then begin
      Obs.Counter.incr probe_count;
      Obs.Counter.incr (probe_label_counter q)
    end;
    let args =
      if Obs.tracing () then
        Some (probe_args db q kind (Database.snapshot_counters db))
      else None
    in
    Obs.with_span ?args ~hist:probe_hist "eval.probe" (fun () ->
        guarded db (counted db f))
  end

(* The first-answer probe: the plan's reused frame holds the witness,
   and the probe scratch names its slots, until the next probe. *)
type witness = { plan : Plan.t; generation : int }

let run_first db q =
  let plan = Database.plan db q in
  if Plan.first plan (Database.counters db) then
    Some { plan; generation = Plan.generation () }
  else None

(* [probed] without its closure when nothing is armed or guarded. *)
let first_probe ~kind db q =
  match Database.guard db with
  | None when not (Obs.enabled ()) ->
    Database.count_probe db;
    run_first db q
  | _ -> probed db q ~kind (fun () -> run_first db q)

let first db q = first_probe ~kind:"first" db q

let witness_slot w s =
  if w.generation <> Plan.generation () then
    invalid_arg "Eval.witness_slot: another probe ran since";
  (Plan.frame w.plan).(s)

let valuation { plan; _ } =
  let frame = Plan.frame plan in
  let b = ref Binding.empty in
  for s = 0 to Plan.nslots plan - 1 do
    b := Binding.add (Plan.var_name s) frame.(s) !b
  done;
  !b

let find_first db q = Option.map valuation (first_probe ~kind:"solve" db q)

let solve db (q : Cq.t) ~on_solution =
  probed db q ~kind:"solve" @@ fun () ->
  let binding, run = prepare db q in
  run (fun frame -> on_solution (snapshot_frame binding frame))

let satisfiable db q = Option.is_some (first_probe ~kind:"satisfiable" db q)

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

let pp_valuation ppf b =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, v) -> Format.fprintf ppf "%s -> %a" x Value.pp v))
    (Binding.bindings b)
