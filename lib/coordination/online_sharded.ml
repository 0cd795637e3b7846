open Relational
open Entangled

type t = {
  db : Database.t;
  domains : int;
  consume : bool;
  shards : Online.t array;
  views : Database.t array;
  entry_shard : (int, int) Hashtbl.t;  (* live id -> shard *)
  mutable next_id : int;
  mutable migrations : int;
  mutable last_degradation : Resilient.degradation option;
}

let create ?(consume = false) ?(domains = Executor.default_domains ()) db =
  if domains < 1 then
    invalid_arg
      (Printf.sprintf "Online_sharded.create: domains must be positive (%d)"
         domains);
  let views = Array.init domains (fun _ -> Database.worker_view db) in
  let shards = Array.map (Online.create ~consume) views in
  {
    db;
    domains;
    consume;
    shards;
    views;
    entry_shard = Hashtbl.create 256;
    next_id = 0;
    migrations = 0;
    last_degradation = None;
  }

let migrations t = t.migrations

let table_sizes t =
  let sum name =
    Array.fold_left
      (fun n e -> n + List.assoc name (Online.table_sizes e))
      0 t.shards
  in
  ("entry_shard", Hashtbl.length t.entry_shard)
  :: List.map
       (fun (name, _) -> (name, sum name))
       (Online.table_sizes t.shards.(0))

(* ------------------------------- routing ------------------------------- *)

(* Ids that left the pool (fired, rejected or withdrawn). *)
let release_ids t ids = List.iter (Hashtbl.remove t.entry_shard) ids

let least_loaded t =
  let best = ref 0 in
  for i = 1 to t.domains - 1 do
    if Online.pending_count t.shards.(i) < Online.pending_count t.shards.(!best)
    then best := i
  done;
  !best

(* Route an arrival: every shard reports the live components the
   arrival has a coordination edge with ({!Online.touched}, the probe
   admission runs).  The target is the shard holding the most touched
   entries (fewest entries move; ties break to the lowest shard index),
   or the least-loaded shard when no shard is touched.  Every other
   shard's touched components move there whole.  Components are closed
   under edges, so each one stays inside one shard, and a migration
   happens only when the arrival really bridges two shards.  Records
   the arrival's shard and returns it; the caller admits the entry
   there. *)
let route t ~id (q : Query.t) =
  let touched = Array.map (fun e -> Online.touched e q) t.shards in
  let most = ref (-1) in
  Array.iteri
    (fun s ids ->
      if
        ids <> []
        && (!most < 0 || List.compare_lengths ids touched.(!most) > 0)
      then most := s)
    touched;
  let target = if !most < 0 then least_loaded t else !most in
  Array.iteri
    (fun s ids ->
      if s <> target && ids <> [] then begin
        Online.attach t.shards.(target) (Online.detach t.shards.(s) ids);
        List.iter (fun i -> Hashtbl.replace t.entry_shard i target) ids;
        t.migrations <- t.migrations + 1
      end)
    touched;
  Hashtbl.replace t.entry_shard id target;
  target

(* A fresh arrival as [Online.attach] takes it: due for evaluation. *)
let arrival id q =
  { Online.mv_id = id; mv_query = q; mv_dirty = true; mv_quiet = false }

(* ---------------------------- op plumbing ----------------------------- *)

(* Bracket every public operation exactly as the sequential engine
   does: clear last-op verdicts, absorb external database mutations
   into every shard's dirty set, and propagate the database's current
   guard to the worker views so sequentially-committed evaluations are
   governed like the oracle's. *)
let prepare_all t =
  t.last_degradation <- None;
  let g = Database.guard t.db in
  Array.iter (fun v -> Database.set_guard v g) t.views;
  Array.iter Online.prepare_op t.shards

(* Absorb the operation's own inventory deletions on every shard:
   deletions are monotone, so no shard's cached "cannot fire" verdicts
   are invalidated — exactly why the sequential engine does not re-
   dirty its own pool either. *)
let finish_all t = Array.iter Online.finish_op t.shards

let note_degradation t s =
  match Online.last_degradation t.shards.(s) with
  | Some d -> t.last_degradation <- Some d
  | None -> ()

(* Routing tee for sequentially-committed shard operations: the
   shard's journal reports every id that leaves its pool (fired or
   rejected), and the tee releases it from [entry_shard].  The tee is
   installed only around operations on the calling domain, never inside
   [flush_parallel]'s workers, because [entry_shard] is unsynchronised. *)
let with_tee t s f =
  let tee : Online.Journal.sink = function
    | Online.Journal.Retired { ids } -> release_ids t ids
    | Online.Journal.Rejected { id } -> release_ids t [ id ]
    | Online.Journal.Submitted _ | Online.Journal.Consumed _
    | Online.Journal.Op_end _ ->
      ()
  in
  Online.set_journal t.shards.(s) (Some tee);
  Fun.protect
    ~finally:(fun () -> Online.set_journal t.shards.(s) None)
    f

(* ---------------------------- flush rounds ---------------------------- *)

(* Non-consume flush: the store cannot move during the rounds, so the
   shards' components are fully independent and every shard can run its
   sequential flush to fixpoint concurrently.  Each shard's fire stream
   is non-decreasing in [f_key] (Online.fired), so a stable merge by
   key reproduces the sequential engine's fire order exactly; the
   fired ids leave the routing table post-hoc in that order.  Guards are
   split per shard and re-absorbed, as the batch executor does. *)
let flush_parallel t =
  Database.warm_indexes t.db;
  let guard = Database.guard t.db in
  let children =
    match guard with
    | None -> [||]
    | Some g ->
      let c = Resilient.split g t.domains in
      Array.iteri (fun i v -> Database.set_guard v (Some c.(i))) t.views;
      c
  in
  let weights = Array.map Online.pending_count t.shards in
  let results =
    Executor.Pool.map ~domains:t.domains ~weights (fun i ->
        Online.flush_fired t.shards.(i))
  in
  (* Every domain is joined before any crash surfaces (Pool.map joins
     unconditionally); restore the guard topology first so a crash in
     one shard never leaves split children armed. *)
  (match guard with
  | None -> ()
  | Some g ->
    Resilient.absorb g children;
    Array.iter (fun v -> Database.set_guard v guard) t.views);
  Executor.raise_first_crash results;
  let fired =
    Array.to_list results
    |> List.concat_map (function Ok l -> l | Error _ -> [])
    |> List.stable_sort (fun (a : Online.fired) b ->
           Int.compare a.f_key b.f_key)
  in
  List.iter (fun (fr : Online.fired) -> release_ids t fr.f_ids) fired;
  for s = 0 to t.domains - 1 do
    note_degradation t s
  done;
  fired

(* Consume flush: fired sets delete inventory from the shared store, so
   components are no longer independent — a fire in one shard can
   invalidate a candidate in another.  Commit components one at a time
   in the global canonical order (smallest member id first, restarting
   after every fire), each through its owning shard's sequential
   evaluation: the fire sequence, deletions, conflicts and stats are
   exactly the sequential engine's. *)
let flush_sequential t =
  let fired = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let due =
      Array.to_list
        (Array.mapi
           (fun s e ->
             List.map (fun ids -> (List.hd ids, s, ids)) (Online.due_components e))
           t.shards)
      |> List.concat
      |> List.sort (fun (k1, _, _) (k2, _, _) -> Int.compare k1 k2)
    in
    (try
       List.iter
         (fun (_, s, ids) ->
           match with_tee t s (fun () -> Online.evaluate_due t.shards.(s) ids) with
           | `Fired fr ->
             fired := fr :: !fired;
             note_degradation t s;
             progress := true;
             raise Exit
           | `Quiet | `Unsafe -> note_degradation t s)
         due
     with Exit -> ())
  done;
  List.rev !fired

let flush_fired t = if t.consume then flush_sequential t else flush_parallel t

(* ---------------------------- public ops ------------------------------ *)

let submit t query =
  Obs.with_span
    ~args:(fun () ->
      [
        ("query", Obs.Str query.Query.name);
        ("domains", Obs.Int t.domains);
      ])
    "online_sharded.submit"
  @@ fun () ->
  prepare_all t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let s = route t ~id query in
  let result = with_tee t s (fun () -> Online.submit ~id t.shards.(s) query) in
  note_degradation t s;
  finish_all t;
  result

let withdraw t id =
  Obs.with_span
    ~args:(fun () -> [ ("id", Obs.Int id); ("domains", Obs.Int t.domains) ])
    "online_sharded.withdraw"
  @@ fun () ->
  prepare_all t;
  match Hashtbl.find_opt t.entry_shard id with
  | None -> false
  | Some s ->
    let ok = with_tee t s (fun () -> Online.withdraw t.shards.(s) id) in
    assert ok;
    finish_all t;
    true

let flush t =
  Obs.with_span
    ~args:(fun () ->
      [
        ("pool", Obs.Int (Hashtbl.length t.entry_shard));
        ("domains", Obs.Int t.domains);
      ])
    "online_sharded.flush"
  @@ fun () ->
  prepare_all t;
  let fired = flush_fired t in
  finish_all t;
  List.map (fun (fr : Online.fired) -> fr.f_set) fired

let submit_all t queries =
  Obs.with_span
    ~args:(fun () ->
      [
        ("batch", Obs.Int (List.length queries));
        ("domains", Obs.Int t.domains);
      ])
    "online_sharded.submit_all"
  @@ fun () ->
  prepare_all t;
  (* Admit each arrival as soon as it is routed: a later arrival of the
     same batch can migrate the group an earlier one joined, and only an
     admitted entry can be detached.  Evaluation happens in the flush
     below. *)
  List.iter
    (fun q ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let s = route t ~id q in
      Online.attach t.shards.(s) [ arrival id q ])
    queries;
  let fired = flush_fired t in
  finish_all t;
  List.map (fun (fr : Online.fired) -> fr.f_set) fired

(* ------------------------------ readers ------------------------------- *)

let pending_entries t =
  Array.to_list t.shards
  |> List.concat_map Online.pending_entries
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let next_id t = t.next_id

let pending_count t =
  Array.fold_left (fun acc e -> acc + Online.pending_count e) 0 t.shards

let total_coordinated t =
  Array.fold_left (fun acc e -> acc + Online.total_coordinated e) 0 t.shards

let stats t =
  let s = Stats.create () in
  Array.iter (fun e -> Stats.merge ~into:s (Online.stats e)) t.shards;
  s

let last_degradation t = t.last_degradation

let components t =
  let position = Hashtbl.create 64 in
  List.iteri (fun i (id, _) -> Hashtbl.replace position id i) (pending_entries t);
  Array.to_list t.shards
  |> List.concat_map (fun e ->
         let local = Array.of_list (Online.pending_entries e) in
         List.map
           (fun comp ->
             List.map (fun p -> Hashtbl.find position (fst local.(p))) comp)
           (Online.components e))
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))
