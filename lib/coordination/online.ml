open Relational
open Entangled

type coordinated = {
  queries : Query.t list;
  assignment : Eval.valuation;
}

type submission =
  | Coordinated of coordinated
  | Pending
  | Rejected_unsafe of (int * int) list

(* A fired set together with the identity a sharded orchestrator needs
   to merge per-shard fire streams deterministically: [f_key] is the
   smallest live member id of the component that was EVALUATED (not of
   the subset that fired — a remnant can refire under the same key),
   which is exactly the order the sequential flush tries components
   in. *)
type fired = { f_key : int; f_ids : int list; f_set : coordinated }

type inventory_conflict = {
  double_spent : (string * Tuple.t) list;
  missing : (string * Tuple.t) list;
}

(* Journal of state-changing effects, for a write-ahead log (see
   lib/durable).  Records describe what the engine DID — admissions,
   retirements, the deduplicated inventory deletions of the two-phase
   consume commit — never what it computed, so replaying them
   reconstructs the pool, satisfied count and store without re-running
   any evaluation (and therefore can never fire a different set or
   double-spend a tuple).  [Op_end] closes the group of records one
   public operation emitted; a durability layer uses it as the atomic
   commit boundary. *)
module Journal = struct
  type op = Submit_op | Submit_all_op | Flush_op | Withdraw_op

  type record =
    | Submitted of { id : int; query : Query.t }
    | Rejected of { id : int }  (** admitted then evicted as unsafe *)
    | Retired of { ids : int list }  (** a fired set left the pool *)
    | Consumed of { deletions : (string * Tuple.t) list }
    | Op_end of { op : op; fired : int }

  type sink = record -> unit
end

(* One pooled query.  [neighbours] stores the undirected coordination
   adjacency discovered when the entry (or a later partner) arrived, so
   a dissolved component can be re-linked locally without rebuilding any
   graph.  Ids are submission order and never reused; an id is live iff
   it is present in [entries]. *)
type entry = {
  id : int;
  query : Query.t;
  mutable neighbours : int list;
}

type t = {
  db : Database.t;
  selection : Scc_algo.selection;
  eager : bool;
  consume : bool;
  entries : (int, entry) Hashtbl.t;  (* the live pool, keyed by id *)
  mutable next_id : int;
  (* Persistent indexing state.  The two atom indexes cover the post/head
     atoms of every live entry (payload = owner id): a new arrival
     probes its posts against pooled heads and its heads against pooled
     posts to discover coordination edges without re-unifying against
     the whole pool.  [uf]/[comp_members] maintain the weakly-connected
     component partition; [dirty] the set of live ids whose component
     must be re-evaluated (a component is dirty iff any member is). *)
  posts_index : int Coordination_graph.Atom_index.t;
  heads_index : int Coordination_graph.Atom_index.t;
  uf : Graphs.Union_find.t;
  comp_members : (int, int list) Hashtbl.t;  (* uf root -> live member ids *)
  dirty : (int, unit) Hashtbl.t;
  mutable db_version : int;
  mutable satisfied : int;
  mutable last_degradation : Resilient.degradation option;
  mutable last_conflict : inventory_conflict option;
  mutable journal : Journal.sink option;
  stats : Stats.t;
}

let create ?(selection = Scc_algo.Largest) ?(eager = true) ?(consume = false)
    db =
  {
    db;
    selection;
    eager;
    consume;
    entries = Hashtbl.create 64;
    next_id = 0;
    posts_index = Coordination_graph.Atom_index.create ();
    heads_index = Coordination_graph.Atom_index.create ();
    uf = Graphs.Union_find.create ();
    comp_members = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    db_version = Database.data_version db;
    satisfied = 0;
    last_degradation = None;
    last_conflict = None;
    journal = None;
    stats = Stats.create ();
  }

let selection engine = engine.selection
let eager engine = engine.eager
let consume engine = engine.consume
let set_journal engine sink = engine.journal <- sink

let emit engine record =
  match engine.journal with None -> () | Some sink -> sink record

(* Live entries in submission (= id) order. *)
let live_entries engine =
  Hashtbl.fold (fun _ e acc -> e :: acc) engine.entries []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let pending engine = List.map (fun e -> e.query) (live_entries engine)

let pending_entries engine =
  List.map (fun e -> (e.id, e.query)) (live_entries engine)

let next_id engine = engine.next_id

let pending_count engine = Hashtbl.length engine.entries

let index_keys engine =
  ( Coordination_graph.Atom_index.key_count engine.posts_index,
    Coordination_graph.Atom_index.key_count engine.heads_index )

let total_coordinated engine = engine.satisfied

let stats engine = engine.stats

let last_degradation engine = engine.last_degradation

let last_inventory_conflict engine = engine.last_conflict

let mark_dirty engine id = Hashtbl.replace engine.dirty id ()

(* If the database moved since the engine last looked (external inserts
   or deletes — e.g. repl [fact] statements), every cached "this
   component cannot fire" verdict is stale: mark the whole pool dirty.
   The stamp is per-database, so only mutations of *this* engine's
   database trigger a refresh. *)
let refresh_db_version engine =
  let v = Database.data_version engine.db in
  if v <> engine.db_version then begin
    engine.db_version <- v;
    Hashtbl.iter (fun id _ -> mark_dirty engine id) engine.entries
  end

(* Absorb the engine's own inventory deletions at the end of an
   operation: conjunctive queries are monotone, so deleting tuples can
   only shrink answer sets — a component that just evaluated to
   "cannot fire" still cannot, and need not be re-dirtied. *)
let sync_db_version engine =
  engine.db_version <- Database.data_version engine.db

(* Every public operation starts here.  Per-operation verdicts from the
   PREVIOUS operation — a degradation, an inventory conflict — are
   cleared in one place so no entry point can forget and report (or
   journal) a stale failure after a later clean pass; then external
   database mutations are absorbed into the dirty set. *)
let begin_op engine =
  engine.last_degradation <- None;
  engine.last_conflict <- None;
  refresh_db_version engine

let index_entry engine e =
  List.iter
    (fun a -> Coordination_graph.Atom_index.add engine.posts_index a e.id)
    e.query.Query.post;
  List.iter
    (fun a -> Coordination_graph.Atom_index.add engine.heads_index a e.id)
    e.query.Query.head

let unindex_entry engine e =
  let is_me id = id = e.id in
  List.iter
    (fun a -> Coordination_graph.Atom_index.remove engine.posts_index a is_me)
    e.query.Query.post;
  List.iter
    (fun a -> Coordination_graph.Atom_index.remove engine.heads_index a is_me)
    e.query.Query.head

(* Coordination partners of [q] within the current pool: an edge exists
   when one side's postcondition is {!Coordination_graph.compatible}
   with the other side's head.  Compatibility only inspects relation
   symbols and constants, so probing the ORIGINAL (unrenamed) atoms
   finds exactly the edges a rebuilt graph over the renamed pool
   would. *)
let discover_partners engine (q : Query.t) =
  let probe_all atoms index =
    List.concat_map
      (fun a ->
        List.map snd (Coordination_graph.Atom_index.probe index a))
      atoms
  in
  let outgoing = probe_all q.Query.post engine.heads_index in
  let incoming = probe_all q.Query.head engine.posts_index in
  List.sort_uniq Int.compare (List.rev_append outgoing incoming)

(* Merge the component member lists when two roots fuse. *)
let union_ids engine a b =
  let ra = Graphs.Union_find.find engine.uf a in
  let rb = Graphs.Union_find.find engine.uf b in
  if ra <> rb then begin
    let ma =
      Option.value ~default:[] (Hashtbl.find_opt engine.comp_members ra)
    in
    let mb =
      Option.value ~default:[] (Hashtbl.find_opt engine.comp_members rb)
    in
    let r = Graphs.Union_find.union engine.uf a b in
    Hashtbl.remove engine.comp_members ra;
    Hashtbl.remove engine.comp_members rb;
    Hashtbl.replace engine.comp_members r (List.rev_append ma mb)
  end

(* Admit a query into the pool.  This is where all persistent state is
   maintained: probe the indexes for partners
   (before indexing the entry's own atoms, so it cannot partner with
   itself), record the adjacency on both sides, union into the
   partition, and mark the (possibly fused) component dirty.

   [admit] takes the id explicitly so recovery replay (lib/durable) can
   re-admit entries under their journaled ids; live submissions go
   through [add_entry], which allocates the next id. *)
let admit engine ~id query =
  if id >= engine.next_id then engine.next_id <- id + 1;
  let partners = discover_partners engine query in
  let e = { id; query; neighbours = partners } in
  List.iter
    (fun p ->
      let pe = Hashtbl.find engine.entries p in
      pe.neighbours <- id :: pe.neighbours)
    partners;
  Hashtbl.replace engine.entries id e;
  index_entry engine e;
  Graphs.Union_find.ensure engine.uf id;
  (* A re-attached id (shard migration round-trip) may carry a stale
     parent pointer from its retirement in this engine; reset makes it a
     singleton root again.  For a fresh id this is a no-op. *)
  Graphs.Union_find.reset engine.uf id;
  Hashtbl.replace engine.comp_members id [ id ];
  List.iter (fun p -> union_ids engine id p) partners;
  mark_dirty engine id;
  e

let add_entry engine query = admit engine ~id:engine.next_id query

(* Remove [ids] from the pool, dissolving their components: every
   surviving member is reset to a union-find singleton and re-unioned
   from its stored (still-live) adjacency, rebuilding the partition
   locally.  Survivors are marked dirty — retirement shrinks their
   component, which can newly enable a coordinating set among the
   remainder (the fired set may have been what made a candidate unsafe
   or over-constrained). *)
let retire engine ids =
  let roots =
    List.sort_uniq Int.compare
      (List.map (fun id -> Graphs.Union_find.find engine.uf id) ids)
  in
  let component_ids =
    List.concat_map
      (fun r ->
        Option.value ~default:[] (Hashtbl.find_opt engine.comp_members r))
      roots
  in
  List.iter
    (fun id ->
      let e = Hashtbl.find engine.entries id in
      unindex_entry engine e;
      Hashtbl.remove engine.entries id;
      Hashtbl.remove engine.dirty id)
    ids;
  List.iter (fun r -> Hashtbl.remove engine.comp_members r) roots;
  let survivors =
    List.filter (fun id -> Hashtbl.mem engine.entries id) component_ids
  in
  (* Reset every survivor first: afterwards each live node of the old
     tree is its own root, so the re-union pass below only ever links
     freshly reset roots.  Retired nodes may keep stale parent pointers
     into the old tree, but nothing ever calls [find] on a retired id
     again. *)
  List.iter
    (fun id ->
      let e = Hashtbl.find engine.entries id in
      e.neighbours <-
        List.filter (fun nb -> Hashtbl.mem engine.entries nb) e.neighbours;
      Graphs.Union_find.reset engine.uf id;
      Hashtbl.replace engine.comp_members id [ id ])
    survivors;
  List.iter
    (fun id ->
      let e = Hashtbl.find engine.entries id in
      List.iter (fun nb -> union_ids engine id nb) e.neighbours;
      mark_dirty engine id)
    survivors

let components engine =
  let live = live_entries engine in
  let position = Hashtbl.create (2 * List.length live) in
  List.iteri (fun i e -> Hashtbl.replace position e.id i) live;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let r = Graphs.Union_find.find engine.uf e.id in
      let l = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      Hashtbl.replace groups r (Hashtbl.find position e.id :: l))
    live;
  Hashtbl.fold (fun _ l acc -> List.rev l :: acc) groups []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* Book the grounded body tuples of a fired set: each tuple is one unit
   of inventory.  Two-phase for exception safety: every deletion is
   resolved (relation looked up, variables grounded) before the first
   tuple is removed, so a failure — an unbound variable, a missing
   binding — leaves the store untouched rather than half-consumed.

   The resolved list is deduplicated before deletion.  Two members of a
   fired set can ground onto the SAME tuple (one seat block serving two
   bookings), and a tuple can already be absent; silently issuing the
   deletes would hide both.  The set still fires — its members genuinely
   coordinated, and refusing here would leave them half-committed — but
   the conflict is recorded on the engine and emitted as an Obs event so
   the caller can compensate. *)
let consume_inventory engine (queries : Query.t array) (solution : Solution.t)
    =
  let deletions =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun (a : Cq.atom) ->
            let tuple =
              Array.map
                (function
                  | Term.Const v -> v
                  | Term.Var x -> Eval.Binding.find x solution.assignment)
                a.args
            in
            match Database.relation_opt engine.db a.rel with
            | Some r -> Some (a.rel, r, tuple)
            | None -> None)
          queries.(m).Query.body.Cq.atoms)
      solution.members
  in
  (* Demand count per (relation, tuple), in first-demand order. *)
  let counts = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (name, r, tuple) ->
      let key = (name, tuple) in
      match Hashtbl.find_opt counts key with
      | Some (n, _) -> Hashtbl.replace counts key (n + 1, r)
      | None ->
        Hashtbl.replace counts key (1, r);
        order := key :: !order)
    deletions;
  let order = List.rev !order in
  (* Journal the deduplicated deletion list — the exact tuples the
     delete pass below issues, each once — so replay re-applies the
     committed bookings verbatim and can never double-spend. *)
  if order <> [] then emit engine (Journal.Consumed { deletions = order });
  let double_spent =
    List.filter (fun key -> fst (Hashtbl.find counts key) > 1) order
  in
  let missing =
    List.filter
      (fun key ->
        let _, r = Hashtbl.find counts key in
        not (Relation.delete r (snd key)))
      order
  in
  if double_spent <> [] || missing <> [] then begin
    engine.last_conflict <- Some { double_spent; missing };
    Obs.event
      ~args:(fun () ->
        [
          ("double_spent", Obs.Int (List.length double_spent));
          ("missing", Obs.Int (List.length missing));
        ])
      "online.inventory_conflict"
  end

(* Evaluate one component, given as a list of live ids in ascending
   order; on success retire the members and report them. *)
let evaluate engine ids =
  let id_of_position = Array.of_list ids in
  let input =
    List.map (fun id -> (Hashtbl.find engine.entries id).query) ids
  in
  match Scc_algo.solve ~selection:engine.selection engine.db input with
  | Error (Scc_algo.Not_safe ws) -> Error ws
  | Ok outcome -> (
    Stats.merge ~into:engine.stats outcome.stats;
    (if outcome.degraded <> None then
       engine.last_degradation <- outcome.degraded);
    match outcome.solution with
    | None ->
      (* A complete (non-degraded) quiescent evaluation is cachable: the
         component cannot fire until its membership or the database
         changes, and both of those mark it dirty again.  A degraded
         evaluation proves nothing — some candidate was never probed —
         so it must stay dirty for the next flush. *)
      if outcome.degraded = None then
        List.iter (fun id -> Hashtbl.remove engine.dirty id) ids;
      Ok None
    | Some solution ->
      (* Commit the pool/satisfied bookkeeping BEFORE consuming
         inventory: if the deletion pass failed after the pool shrank,
         the engine would stay coherent (the set genuinely fired); the
         reverse order could delete tuples for a set never recorded as
         satisfied. *)
      let member_ids = List.map (fun i -> id_of_position.(i)) solution.members in
      let satisfied_queries =
        List.map (fun id -> (Hashtbl.find engine.entries id).query) member_ids
      in
      retire engine member_ids;
      engine.satisfied <- engine.satisfied + List.length satisfied_queries;
      emit engine (Journal.Retired { ids = member_ids });
      if engine.consume then consume_inventory engine outcome.queries solution;
      Ok
        (Some
           {
             f_key = List.hd ids;
             f_ids = member_ids;
             f_set =
               { queries = satisfied_queries; assignment = solution.assignment };
           }))

(* The ids of the component containing [e], ascending. *)
let component_of engine (e : entry) =
  let r = Graphs.Union_find.find engine.uf e.id in
  List.sort Int.compare
    (Option.value ~default:[ e.id ] (Hashtbl.find_opt engine.comp_members r))

let submit ?id engine query =
  Obs.with_span
    ~args:(fun () ->
      [
        ("query", Obs.Str query.Query.name);
        ("pool", Obs.Int (Hashtbl.length engine.entries));
      ])
    "online.submit"
  @@ fun () ->
  begin_op engine;
  let e =
    match id with
    | None -> add_entry engine query
    | Some id ->
      (* A sharded orchestrator allocates ids globally and forces them
         here, so per-shard pools share one id space. *)
      if id < engine.next_id then
        invalid_arg
          (Printf.sprintf "Online.submit: forced id %d below next_id %d" id
             engine.next_id);
      admit engine ~id query
  in
  emit engine (Journal.Submitted { id = e.id; query });
  let result =
    if not engine.eager then Pending
    else
      match evaluate engine (component_of engine e) with
      | Error ws ->
        (* Do not admit a query that makes its component unsafe. *)
        retire engine [ e.id ];
        emit engine (Journal.Rejected { id = e.id });
        Rejected_unsafe ws
      | Ok None -> Pending
      | Ok (Some fr) -> Coordinated fr.f_set
  in
  emit engine
    (Journal.Op_end
       {
         op = Journal.Submit_op;
         fired =
           (match result with Coordinated c -> List.length c.queries | _ -> 0);
       });
  sync_db_version engine;
  result

(* Withdraw a pending entry by pool id — the service layer's `retire`
   verb: a client takes an offer back before it coordinates.  Journaled
   as a [Rejected] effect (the replay semantics are identical to an
   unsafe eviction: the id leaves the pool with no satisfied-count
   change).  Removal can newly enable a coordinating set among the
   remainder — the withdrawn query may have been what made its
   component unsafe or over-constrained — so survivors are marked
   dirty by [retire]; the next flush (or eager submit) re-evaluates
   them. *)
let withdraw engine id =
  Obs.with_span
    ~args:(fun () ->
      [
        ("id", Obs.Int id);
        ("pool", Obs.Int (Hashtbl.length engine.entries));
      ])
    "online.withdraw"
  @@ fun () ->
  begin_op engine;
  if not (Hashtbl.mem engine.entries id) then false
  else begin
    retire engine [ id ];
    emit engine (Journal.Rejected { id });
    emit engine (Journal.Op_end { op = Journal.Withdraw_op; fired = 0 });
    sync_db_version engine;
    true
  end

(* The components a flush round must (re-)evaluate, as ascending id
   lists ordered by smallest member.  An all-clean component was last
   evaluated (completely, to no fire) with exactly its current member set
   and database contents, so it provably cannot fire now. *)
let due_components engine =
  let roots = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id () ->
      if Hashtbl.mem engine.entries id then
        Hashtbl.replace roots (Graphs.Union_find.find engine.uf id) ())
    engine.dirty;
  Hashtbl.fold
    (fun r () acc ->
      match Hashtbl.find_opt engine.comp_members r with
      | None | Some [] -> acc
      | Some ids -> List.sort Int.compare ids :: acc)
    roots []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* Evaluate the dirty components in order of their smallest member id,
   restarting after every fire, until a fixpoint: removing one satisfied
   set can newly enable another among the remainder. *)
let flush_fired engine =
  let results = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let rec try_components = function
      | [] -> ()
      | c :: rest -> (
        match evaluate engine c with
        | Ok (Some fired) ->
          (* Membership changed: abandon the stale component list and
             rescan (the untried components stay dirty). *)
          results := fired :: !results;
          progress := true
        | Ok None -> try_components rest
        | Error _ ->
          (* An unsafe component cannot fire until its membership or
             the database changes — both mark it dirty again — so its
             verdict caches exactly like a quiescent one. *)
          List.iter (fun id -> Hashtbl.remove engine.dirty id) c;
          try_components rest)
    in
    try_components (due_components engine)
  done;
  List.rev !results

let flush engine =
  let pool0 = Hashtbl.length engine.entries in
  Obs.with_span
    ~args:(fun () ->
      [
        ("pool", Obs.Int pool0);
        ("remaining", Obs.Int (Hashtbl.length engine.entries));
      ])
    "online.flush"
  @@ fun () ->
  begin_op engine;
  let fired = flush_fired engine in
  emit engine
    (Journal.Op_end { op = Journal.Flush_op; fired = List.length fired });
  sync_db_version engine;
  List.map (fun fr -> fr.f_set) fired

let submit_all engine queries =
  Obs.with_span
    ~args:(fun () ->
      [
        ("batch", Obs.Int (List.length queries));
        ("pool", Obs.Int (Hashtbl.length engine.entries));
      ])
    "online.submit_all"
  @@ fun () ->
  begin_op engine;
  List.iter
    (fun q ->
      let e = add_entry engine q in
      emit engine (Journal.Submitted { id = e.id; query = q }))
    queries;
  let fired = flush_fired engine in
  emit engine
    (Journal.Op_end { op = Journal.Submit_all_op; fired = List.length fired });
  sync_db_version engine;
  List.map (fun fr -> fr.f_set) fired

(* Recovery replay (lib/durable).  These re-apply journaled effects to
   a fresh engine without evaluating anything: the journal already says
   which sets fired and which tuples were booked, so replay cannot
   diverge from the pre-crash history.  None of them emit journal
   records — recovery attaches its sink only after replay finishes. *)

let restore_submit engine ~id query =
  if id < engine.next_id then
    invalid_arg
      (Printf.sprintf "Online.restore_submit: id %d below next_id %d" id
         engine.next_id);
  ignore (admit engine ~id query)

let restore_retire engine ids =
  List.iter
    (fun id ->
      if not (Hashtbl.mem engine.entries id) then
        invalid_arg (Printf.sprintf "Online.restore_retire: id %d not live" id))
    ids;
  retire engine ids;
  engine.satisfied <- engine.satisfied + List.length ids

let restore_evict engine id =
  if not (Hashtbl.mem engine.entries id) then
    invalid_arg (Printf.sprintf "Online.restore_evict: id %d not live" id);
  retire engine [ id ]

let restore_counters engine ~satisfied ~next_id =
  if next_id < engine.next_id then
    invalid_arg "Online.restore_counters: next_id below an admitted id";
  engine.satisfied <- satisfied;
  engine.next_id <- next_id

(* Orchestrator hooks (lib/coordination/online_sharded).  A sharded
   engine runs one of these engines per shard and manages the public
   operation boundary itself: it brackets every operation with
   [prepare_op]/[finish_op] on every shard, moves whole components
   between shards with [detach]/[attach], and drives flush rounds
   through [flush_fired]/[due_components]/[evaluate_due] so it can
   merge per-shard fire streams into the sequential order.  None of
   these emit [Journal.Op_end] — the orchestrator owns the commit
   boundary. *)

let prepare_op = begin_op
let finish_op = sync_db_version

let evaluate_due engine ids =
  match evaluate engine ids with
  | Error _ ->
    (* Cache the unsafe verdict exactly as [flush_fired] does. *)
    List.iter (fun id -> Hashtbl.remove engine.dirty id) ids;
    `Unsafe
  | Ok None -> `Quiet
  | Ok (Some fr) -> `Fired fr

type moved = { mv_id : int; mv_query : Query.t; mv_dirty : bool }

let detach engine ids =
  let ids = List.sort_uniq Int.compare ids in
  let moved =
    List.map
      (fun id ->
        match Hashtbl.find_opt engine.entries id with
        | None ->
          invalid_arg (Printf.sprintf "Online.detach: id %d not live" id)
        | Some e ->
          {
            mv_id = id;
            mv_query = e.query;
            mv_dirty = Hashtbl.mem engine.dirty id;
          })
      ids
  in
  retire engine ids;
  moved

let attach engine moved =
  List.iter
    (fun m ->
      if Hashtbl.mem engine.entries m.mv_id then
        invalid_arg
          (Printf.sprintf "Online.attach: id %d already live" m.mv_id);
      ignore (admit engine ~id:m.mv_id m.mv_query);
      (* [admit] marks the new entry dirty; preserve the source shard's
         verdict instead — migration alone re-evaluates nothing, exactly
         as the sequential engine would not. *)
      if not m.mv_dirty then Hashtbl.remove engine.dirty m.mv_id)
    moved
