type t = {
  tables : (string, Relation.t) Hashtbl.t;
  counters : Counters.t;
  plan_cache : Plan.cache;
  version : int ref;
      (* per-database content version: passed into every relation this
         database creates (each successful insert/delete bumps it) and
         bumped directly on structural changes.  Unlike
         [Relation.mutation_count] this stamp moves only when *this*
         database's contents move. *)
  mutable probe_latency : float;  (* seconds added per probe *)
  mutable guard : Resilient.t option;  (* evaluation budgets, if armed *)
  lookup : string -> Relation.t option;  (* [relation_opt], built once *)
}

let create () =
  let tables = Hashtbl.create 16 in
  {
    tables;
    lookup = Hashtbl.find_opt tables;
    counters = Counters.create ();
    plan_cache = Plan.create_cache ();
    version = ref 0;
    probe_latency = 0.0;
    guard = None;
  }

(* Plans bake in join orders chosen against the schema (and, for
   tie-breaks, cardinalities) seen at compile time; schema changes make
   them meaningless, so the cache empties wholesale. *)
let invalidate_plans db = Plan.clear_cache db.plan_cache

let create_table db schema =
  let name = Schema.name schema in
  if Hashtbl.mem db.tables name then
    invalid_arg (Printf.sprintf "Database.create_table: %s already exists" name);
  (* Bump first, so the new relation's [grown] stamp is the version its
     creation made: creating a table counts as growing it. *)
  incr db.version;
  let r = Relation.create ~version:db.version schema in
  Hashtbl.add db.tables name r;
  invalidate_plans db;
  Relation.note_mutation ();
  r

let create_table' db name attrs = create_table db (Schema.make name attrs)

let drop_table db name =
  if Hashtbl.mem db.tables name then begin
    Hashtbl.remove db.tables name;
    invalidate_plans db;
    incr db.version;
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

let data_version db = !(db.version)

let grown_since db version =
  Hashtbl.fold
    (fun name r acc -> if Relation.grown r > version then name :: acc else acc)
    db.tables []

(* ------------------------------------------------------------------ *)
(* Plan cache                                                         *)
(* ------------------------------------------------------------------ *)

let plan db q =
  Plan.find db.plan_cache ~version:!(db.version) db.lookup db.counters q

let prepare db q =
  let plan = plan db q in
  (plan, Plan.binding ())

let plan_cache_size db = Plan.cache_size db.plan_cache

(* Snapshot of the plan cache for EXPLAIN ANALYZE, key-sorted so the
   rendering order is deterministic. *)
let cached_plans db =
  List.map
    (fun plan -> (Plan.shape_key plan, plan))
    (Plan.cache_plans db.plan_cache)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let counters db = db.counters

let snapshot_counters db = Counters.copy db.counters

let reset_counters db = Counters.reset db.counters

let count_probe db =
  db.counters.probes <- db.counters.probes + 1;
  if db.probe_latency > 0.0 then Unix.sleepf db.probe_latency

let set_probe_latency db seconds =
  if seconds < 0.0 then invalid_arg "Database.set_probe_latency: negative";
  db.probe_latency <- seconds

let set_guard db g = db.guard <- g

let guard db = db.guard

let probes db = db.counters.probes

let pp ppf db =
  Format.fprintf ppf "@[<v>database (%d probes issued)" db.counters.probes;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  %a: %d tuples" Schema.pp (Relation.schema r)
        (Relation.cardinal r))
    (relations db);
  Format.fprintf ppf "@]"
