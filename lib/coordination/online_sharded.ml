open Relational
open Entangled

(* A bucket key mirrors Coordination_graph.Atom_index's partition of
   atoms: relation symbol × first-argument constant, with [None] for
   var-first (wildcard) atoms.  Two atoms can only be compatible when
   they share a relation and their first arguments unify, so every
   coordination edge connects entries that share a bucket key — or a
   const-first bucket with the relation's wildcard bucket. *)
type bucket_key = string * Value.t option

(* A bucket group: a union-find class of bucket keys that have co-
   occurred in one entry (or been wildcard-linked).  Every real
   component of the coordination graph lies inside one group, so
   owning groups — not components — is enough to route arrivals; the
   over-approximation only coarsens placement, never correctness.
   [g_members] is pruned lazily against [entry_shard]. *)
type group = {
  mutable g_keys : bucket_key list;
  mutable g_members : int list;
  mutable g_live : int;
  mutable g_shard : int;  (* owning shard, or -1 while unplaced *)
}

type t = {
  db : Database.t;
  domains : int;
  consume : bool;
  shards : Online.t array;
  views : Database.t array;
  (* routing state *)
  bucket_ids : (bucket_key, int) Hashtbl.t;
  bucket_uf : Graphs.Union_find.t;
  groups : (int, group) Hashtbl.t;  (* uf root -> group *)
  rel_buckets : (string, int list ref) Hashtbl.t;
  rel_wildcard : (string, unit) Hashtbl.t;
  entry_shard : (int, int) Hashtbl.t;  (* live id -> shard *)
  entry_bucket : (int, int) Hashtbl.t;  (* live id -> a bucket of its group *)
  mutable next_bucket : int;
  mutable next_id : int;
  mutable base_satisfied : int;  (* satisfied before this engine took over *)
  mutable migrations : int;
  mutable last_degradation : Resilient.degradation option;
  mutable last_conflict : Online.inventory_conflict option;
  mutable journal : Online.Journal.sink option;
}

let create ?(selection = Scc_algo.Largest) ?(eager = true) ?(consume = false)
    ?(domains = Executor.default_domains ()) db =
  if domains < 1 then
    invalid_arg
      (Printf.sprintf "Online_sharded.create: domains must be positive (%d)"
         domains);
  let views = Array.init domains (fun _ -> Database.worker_view db) in
  let shards = Array.map (Online.create ~selection ~eager ~consume) views in
  {
    db;
    domains;
    consume;
    shards;
    views;
    bucket_ids = Hashtbl.create 256;
    bucket_uf = Graphs.Union_find.create ();
    groups = Hashtbl.create 256;
    rel_buckets = Hashtbl.create 16;
    rel_wildcard = Hashtbl.create 4;
    entry_shard = Hashtbl.create 256;
    entry_bucket = Hashtbl.create 256;
    next_bucket = 0;
    next_id = 0;
    base_satisfied = 0;
    migrations = 0;
    last_degradation = None;
    last_conflict = None;
    journal = None;
  }

let domains t = t.domains
let consume t = t.consume
let migrations t = t.migrations
let set_journal t sink = t.journal <- sink

let emit t record =
  match t.journal with None -> () | Some sink -> sink record

let shard_sizes t = Array.map Online.pending_count t.shards

(* ------------------------------- routing ------------------------------- *)

let atom_key (a : Cq.atom) : bucket_key =
  if Array.length a.args = 0 then (a.rel, None)
  else
    match a.args.(0) with
    | Term.Const v -> (a.rel, Some v)
    | Term.Var _ -> (a.rel, None)

let find_root t b = Graphs.Union_find.find t.bucket_uf b
let group_of t b = Hashtbl.find t.groups (find_root t b)

let rel_bucket_list t rel =
  match Hashtbl.find_opt t.rel_buckets rel with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.rel_buckets rel l;
    l

(* Look up or create the bucket for [key].  Creation registers a fresh
   singleton group; any wildcard co-location this bucket implies is
   returned as extra bucket ids for the caller to union (unions are
   deferred to [route] so a cross-shard collision migrates before the
   groups fuse). *)
let bucket_id t key =
  match Hashtbl.find_opt t.bucket_ids key with
  | Some b -> (b, [])
  | None ->
    let b = t.next_bucket in
    t.next_bucket <- b + 1;
    Hashtbl.replace t.bucket_ids key b;
    Graphs.Union_find.ensure t.bucket_uf b;
    Hashtbl.replace t.groups b
      { g_keys = [ key ]; g_members = []; g_live = 0; g_shard = -1 };
    let rel = fst key in
    let all = rel_bucket_list t rel in
    let linked =
      match snd key with
      | Some _ ->
        if Hashtbl.mem t.rel_wildcard rel then
          [ Hashtbl.find t.bucket_ids (rel, None) ]
        else []
      | None ->
        (* First var-first atom of [rel]: it can partner with any
           const-first atom of the relation, so its bucket must co-
           locate with every live bucket of [rel] — current and (via
           [rel_wildcard]) future.  Prune retired buckets while
           walking. *)
        Hashtbl.replace t.rel_wildcard rel ();
        let live =
          List.filter (fun b' -> Hashtbl.mem t.groups (find_root t b')) !all
        in
        all := live;
        live
    in
    all := b :: !all;
    (b, linked)

(* Merge the group records when two bucket roots fuse.  The caller has
   already resolved any shard conflict, so inheriting either side's
   [g_shard] (they are equal, or one is -1) is sound. *)
let union_buckets t a b =
  let ra = find_root t a and rb = find_root t b in
  if ra <> rb then begin
    let ga = Hashtbl.find t.groups ra and gb = Hashtbl.find t.groups rb in
    let r = Graphs.Union_find.union t.bucket_uf a b in
    Hashtbl.remove t.groups ra;
    Hashtbl.remove t.groups rb;
    Hashtbl.replace t.groups r
      {
        g_keys = List.rev_append ga.g_keys gb.g_keys;
        g_members = List.rev_append ga.g_members gb.g_members;
        g_live = ga.g_live + gb.g_live;
        g_shard = (if ga.g_shard >= 0 then ga.g_shard else gb.g_shard);
      }
  end

let purge_group t root g =
  List.iter
    (fun key ->
      Hashtbl.remove t.bucket_ids key;
      if snd key = None then Hashtbl.remove t.rel_wildcard (fst key))
    g.g_keys;
  Hashtbl.remove t.groups root

(* An id left the pool (fired, rejected or withdrawn): release its
   routing state, dissolving the whole group when its last live entry
   goes — the next arrival on those atoms starts a fresh group, so
   bucket co-location never coarsens past the live pool's lifetime. *)
let release_ids t ids =
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.entry_bucket id with
      | None -> ()
      | Some b ->
        let root = find_root t b in
        let g = Hashtbl.find t.groups root in
        g.g_live <- g.g_live - 1;
        Hashtbl.remove t.entry_bucket id;
        Hashtbl.remove t.entry_shard id;
        if g.g_live = 0 then purge_group t root g)
    ids

let least_loaded t =
  let best = ref 0 in
  for i = 1 to t.domains - 1 do
    if Online.pending_count t.shards.(i) < Online.pending_count t.shards.(!best)
    then best := i
  done;
  !best

(* Route an arrival: find the groups its atoms touch, migrate every
   colliding group into the shard that already holds the most involved
   live entries (fewest entries move; ties break to the lowest shard
   index), fuse the groups, and record the arrival.  Returns the owning
   shard; the caller admits the entry there. *)
let route t ~id (q : Query.t) =
  let atoms = q.Query.post @ q.Query.head in
  let keys =
    List.sort_uniq compare (List.map atom_key atoms)
  in
  let keys = if keys = [] then [ (("", None) : bucket_key) ] else keys in
  let bids =
    List.concat_map
      (fun key ->
        let b, linked = bucket_id t key in
        b :: linked)
      keys
  in
  let roots = List.sort_uniq Int.compare (List.map (find_root t) bids) in
  let involved = List.map (fun r -> (r, Hashtbl.find t.groups r)) roots in
  (* Live entries per involved shard. *)
  let by_shard = Hashtbl.create 4 in
  List.iter
    (fun (_, g) ->
      if g.g_shard >= 0 && g.g_live > 0 then
        Hashtbl.replace by_shard g.g_shard
          (g.g_live
          + Option.value ~default:0 (Hashtbl.find_opt by_shard g.g_shard)))
    involved;
  let owners =
    Hashtbl.fold (fun s n acc -> (s, n) :: acc) by_shard []
    |> List.sort (fun (s1, n1) (s2, n2) ->
           if n1 <> n2 then Int.compare n2 n1 else Int.compare s1 s2)
  in
  let target =
    match owners with [] -> least_loaded t | (s, _) :: _ -> s
  in
  (* Migrate every involved group owned elsewhere into [target]. *)
  (match owners with
  | [] | [ _ ] -> ()
  | _ ->
    List.iter
      (fun (s, _) ->
        if s <> target then begin
          let ids =
            List.concat_map
              (fun (_, g) ->
                if g.g_shard = s then
                  List.filter
                    (fun m -> Hashtbl.find_opt t.entry_shard m = Some s)
                    (List.sort_uniq Int.compare g.g_members)
                else [])
              involved
          in
          let ids = List.sort_uniq Int.compare ids in
          if ids <> [] then begin
            let moved = Online.detach t.shards.(s) ids in
            Online.attach t.shards.(target) moved;
            List.iter (fun i -> Hashtbl.replace t.entry_shard i target) ids;
            t.migrations <- t.migrations + 1
          end
        end)
      owners);
  (* Fuse the involved groups and record the arrival. *)
  let b0 = List.hd bids in
  List.iter (fun b -> union_buckets t b0 b) (List.tl bids);
  let g = group_of t b0 in
  g.g_shard <- target;
  g.g_members <- id :: g.g_members;
  g.g_live <- g.g_live + 1;
  Hashtbl.replace t.entry_shard id target;
  Hashtbl.replace t.entry_bucket id b0;
  target

(* ---------------------------- op plumbing ----------------------------- *)

(* Bracket every public operation exactly as the sequential engine
   does: clear last-op verdicts, absorb external database mutations
   into every shard's dirty set, and propagate the database's current
   guard to the worker views so sequentially-committed evaluations are
   governed like the oracle's. *)
let prepare_all t =
  t.last_degradation <- None;
  t.last_conflict <- None;
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

let note_conflict t s =
  match Online.last_inventory_conflict t.shards.(s) with
  | Some c -> t.last_conflict <- Some c
  | None -> ()

(* Journal tee for sequentially-committed shard operations: forward
   retirements, consume deletions and evictions to the sharded sink
   (updating routing state), drop the shard's own [Submitted]/[Op_end]
   — the sharded engine emits those itself, so the record stream is
   byte-equivalent to the sequential engine's. *)
let with_tee t s f =
  let tee : Online.Journal.sink = function
    | Online.Journal.Submitted _ | Online.Journal.Op_end _ -> ()
    | Online.Journal.Retired { ids } as r ->
      release_ids t ids;
      emit t r
    | Online.Journal.Rejected { id } as r ->
      release_ids t [ id ];
      emit t r
    | Online.Journal.Consumed _ as r -> emit t r
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
   retirement records are journaled post-hoc in that order.  Guards are
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
  List.iter
    (fun (fr : Online.fired) ->
      release_ids t fr.f_ids;
      emit t (Online.Journal.Retired { ids = fr.f_ids }))
    fired;
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
             note_conflict t s;
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
  emit t (Online.Journal.Submitted { id; query });
  let result = with_tee t s (fun () -> Online.submit ~id t.shards.(s) query) in
  note_degradation t s;
  note_conflict t s;
  emit t
    (Online.Journal.Op_end
       {
         op = Online.Journal.Submit_op;
         fired =
           (match result with
           | Online.Coordinated c -> List.length c.Online.queries
           | _ -> 0);
       });
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
    emit t
      (Online.Journal.Op_end { op = Online.Journal.Withdraw_op; fired = 0 });
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
  emit t
    (Online.Journal.Op_end
       { op = Online.Journal.Flush_op; fired = List.length fired });
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
      emit t (Online.Journal.Submitted { id; query = q });
      Online.attach t.shards.(s)
        [ { Online.mv_id = id; mv_query = q; mv_dirty = true } ])
    queries;
  let fired = flush_fired t in
  emit t
    (Online.Journal.Op_end
       { op = Online.Journal.Submit_all_op; fired = List.length fired });
  finish_all t;
  List.map (fun (fr : Online.fired) -> fr.f_set) fired

(* ------------------------------ readers ------------------------------- *)

let pending_entries t =
  Array.to_list t.shards
  |> List.concat_map Online.pending_entries
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pending t = List.map snd (pending_entries t)
let next_id t = t.next_id

let pending_count t =
  Array.fold_left (fun acc e -> acc + Online.pending_count e) 0 t.shards

let total_coordinated t =
  t.base_satisfied
  + Array.fold_left (fun acc e -> acc + Online.total_coordinated e) 0 t.shards

let stats t =
  let s = Stats.create () in
  Array.iter (fun e -> Stats.merge ~into:s (Online.stats e)) t.shards;
  s

let last_degradation t = t.last_degradation
let last_inventory_conflict t = t.last_conflict

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

(* ----------------------------- re-sharding ---------------------------- *)

let of_online ~domains db src =
  let t =
    create ~selection:(Online.selection src) ~eager:(Online.eager src)
      ~consume:(Online.consume src) ~domains db
  in
  t.next_id <- Online.next_id src;
  t.base_satisfied <- Online.total_coordinated src;
  List.iter
    (fun (id, q) ->
      let s = route t ~id q in
      Online.attach t.shards.(s)
        [ { Online.mv_id = id; mv_query = q; mv_dirty = true } ])
    (Online.pending_entries src);
  t
