type t = {
  tables : (string, Relation.t) Hashtbl.t;
  counters : Counters.t;
  plan_cache : (string, Plan.t) Hashtbl.t;
  plan_lock : Mutex.t;
      (* serialises plan_cache lookup+compile+insert; shared (like the
         cache itself) between a database and its worker views *)
  version : int Atomic.t;
      (* per-database content version: passed into every relation this
         database creates (each successful insert/delete bumps it) and
         bumped directly on structural changes.  Shared with worker
         views.  Unlike [Relation.mutation_count] this stamp moves only
         when *this* database's contents move. *)
  mutable probe_latency : float;  (* seconds added per probe *)
  mutable guard : Resilient.t option;  (* resilience middleware, if armed *)
}

let create () =
  {
    tables = Hashtbl.create 16;
    counters = Counters.create ();
    plan_cache = Hashtbl.create 64;
    plan_lock = Mutex.create ();
    version = Atomic.make 0;
    probe_latency = 0.0;
    guard = None;
  }

(* A worker view shares the parent's tables, plan cache and lock — so
   concurrent solves see one store and one compile-once cache — but has
   private counters (merged by the caller afterwards) and its own guard
   slot (one shard's budget, not the parent's). *)
let worker_view ?guard db =
  {
    tables = db.tables;
    counters = Counters.create ();
    plan_cache = db.plan_cache;
    plan_lock = db.plan_lock;
    version = db.version;
    probe_latency = db.probe_latency;
    guard;
  }

(* Plans bake in join orders chosen against the schema (and, for
   tie-breaks, cardinalities) seen at compile time; schema changes make
   them meaningless, so the cache empties wholesale. *)
let invalidate_plans db = Hashtbl.reset db.plan_cache

let create_table db schema =
  let name = Schema.name schema in
  if Hashtbl.mem db.tables name then
    invalid_arg (Printf.sprintf "Database.create_table: %s already exists" name);
  let r = Relation.create ~version:db.version schema in
  Hashtbl.add db.tables name r;
  invalidate_plans db;
  Atomic.incr db.version;
  Relation.note_mutation ();
  r

let create_table' db name attrs = create_table db (Schema.make name attrs)

let drop_table db name =
  if Hashtbl.mem db.tables name then begin
    Hashtbl.remove db.tables name;
    invalidate_plans db;
    Atomic.incr db.version;
    Relation.note_mutation ()
  end

let relation db name =
  match Hashtbl.find_opt db.tables name with
  | Some r -> r
  | None -> raise Not_found

let relation_opt db name = Hashtbl.find_opt db.tables name

let mem_relation db name = Hashtbl.mem db.tables name

let relations db =
  Hashtbl.fold (fun _ r acc -> r :: acc) db.tables []
  |> List.sort (fun a b -> String.compare (Relation.name a) (Relation.name b))

let insert db rel vs = ignore (Relation.insert (relation db rel) (Tuple.make vs))

type schema_error =
  | No_table of string
  | Bad_arity of { rel : string; expected : int; got : int }

let schema_error db rel arity =
  match relation_opt db rel with
  | None -> Some (No_table rel)
  | Some r when Relation.arity r <> arity ->
    Some (Bad_arity { rel; expected = Relation.arity r; got = arity })
  | Some _ -> None

let body_schema_error db (q : Cq.t) =
  List.find_map
    (fun (a : Cq.atom) -> schema_error db a.rel (Array.length a.args))
    q.atoms

let pp_schema_error ppf = function
  | No_table rel -> Format.fprintf ppf "no table %s" rel
  | Bad_arity { rel; expected; got } ->
    Format.fprintf ppf "%s has arity %d, got %d" rel expected got

let active_domain db =
  List.fold_left
    (fun acc r -> Value.Set.union acc (Relation.active_domain r))
    Value.Set.empty (relations db)

let total_tuples db =
  List.fold_left (fun acc r -> acc + Relation.cardinal r) 0 (relations db)

let data_version db = Atomic.get db.version

(* ------------------------------------------------------------------ *)
(* Plan cache                                                         *)
(* ------------------------------------------------------------------ *)

let prepare db q =
  let key, shape, binding = Plan.canonicalize q in
  (* Held across lookup+compile+insert so parallel shards sharing the
     cache compile each shape exactly once — keeping plan hit/miss
     totals identical to a sequential run. *)
  Mutex.lock db.plan_lock;
  let plan =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock db.plan_lock)
      (fun () ->
        match Hashtbl.find_opt db.plan_cache key with
        | Some plan ->
          db.counters.plan_hits <- db.counters.plan_hits + 1;
          (* Stamp how current the data was when the plan last served a
             hit — rendered by EXPLAIN ANALYZE as the drift window
             against [compiled_version]. *)
          Plan.note_seen plan ~version:(Atomic.get db.version);
          plan
        | None ->
          db.counters.plan_misses <- db.counters.plan_misses + 1;
          let plan =
            Plan.compile
              ~version:(Atomic.get db.version)
              (relation_opt db) ~key shape
          in
          Hashtbl.add db.plan_cache key plan;
          plan)
  in
  (plan, binding)

let plan_cache_size db = Hashtbl.length db.plan_cache

(* Snapshot of the plan cache for EXPLAIN ANALYZE, key-sorted so the
   rendering order is deterministic.  Taken under the plan lock: the
   executor's shards may be compiling concurrently. *)
let cached_plans db =
  Mutex.lock db.plan_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock db.plan_lock)
    (fun () ->
      Hashtbl.fold (fun key plan acc -> (key, plan) :: acc) db.plan_cache []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let counters db = db.counters

let snapshot_counters db = Counters.copy db.counters

let reset_counters db = Counters.reset db.counters

let count_probe db =
  db.counters.probes <- db.counters.probes + 1;
  if db.probe_latency > 0.0 then
    (* A true blocking sleep, not a busy-wait: the emulated round trip
       must release the core so that concurrent shards overlap their
       in-flight probes the way the paper's client-server setup does. *)
    Unix.sleepf db.probe_latency

let warm_indexes db = List.iter Relation.warm_indexes (relations db)

let set_probe_latency db seconds =
  if seconds < 0.0 then invalid_arg "Database.set_probe_latency: negative";
  db.probe_latency <- seconds

let probe_latency db = db.probe_latency

let set_guard db g = db.guard <- g

let guard db = db.guard

let probes db = db.counters.probes

let reset_probes db = reset_counters db

let pp ppf db =
  Format.fprintf ppf "@[<v>database (%d probes issued)" db.counters.probes;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  %a: %d tuples" Schema.pp (Relation.schema r)
        (Relation.cardinal r))
    (relations db);
  Format.fprintf ppf "@]"
