open Relational
open Entangled
module Atom_index = Coordination_graph.Atom_index

type coordinated = {
  queries : Query.t list;
  assignment : Eval.valuation;
}

type submission =
  | Coordinated of coordinated
  | Pending
  | Rejected_unsafe of (int * int) list

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

(* One pooled query.  [query] is the query as submitted (journaled and
   reported); [renamed] is the same query renamed apart once, at
   admission, by its pool id ({!Query.rename_apart}).  [out] holds the
   entry's outgoing extended coordination edges, [src] = its own id and
   [dst] a live pool id (itself for a self-loop): together the entries'
   out-lists are the pool's coordination graph, discovered once at
   admission and never rebuilt.  [comp] names the entry's weakly
   connected component by the id of one of its live members.  [quiet]
   holds when the component's last complete evaluation, with its
   current members and the current store, was safe and fired nothing;
   a component is quiet iff every member is.  Ids are submission order
   and never reused; an id is live iff it is present in [entries].
   [quiet] changes only through [set_quiet], which keeps the owning
   component's [unquiet] count in step. *)
type entry = {
  id : int;
  query : Query.t;
  renamed : Query.t;
  mutable out : Coordination_graph.edge list;
  mutable comp : int;
  mutable quiet : bool;
}

(* One weakly connected component: its live member ids and how many of
   them are not quiet, so "is the component quiet" is [unquiet = 0]
   without walking the members. *)
type comp = { mutable members : int list; mutable unquiet : int }

type t = {
  db : Database.t;
  consume : bool;
  entries : (int, entry) Hashtbl.t;  (* the live pool, keyed by id *)
  mutable next_id : int;
  (* Persistent indexing state.  The two atom indexes cover the post/head
     atoms of every live entry (payload = owner id, atom index): a new
     arrival probes its posts against pooled heads and its heads against
     pooled posts to discover its coordination edges without re-unifying
     against the whole pool.  [comps] maps each component key to the
     component; [dirty] is the set of live ids whose component must be
     re-evaluated (a component is dirty iff any member is).  Every
     table is keyed by live ids or live atoms only. *)
  posts_index : (int * int) Atom_index.t;
  heads_index : (int * int) Atom_index.t;
  comps : (int, comp) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
  mutable db_version : int;
  mutable satisfied : int;
  mutable last_degradation : Resilient.degradation option;
  mutable last_conflict : inventory_conflict option;
  mutable journal : Journal.sink option;
  stats : Stats.t;
}

let create ?(consume = false) db =
  {
    db;
    consume;
    entries = Hashtbl.create 64;
    next_id = 0;
    posts_index = Atom_index.create ();
    heads_index = Atom_index.create ();
    comps = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    db_version = Database.data_version db;
    satisfied = 0;
    last_degradation = None;
    last_conflict = None;
    journal = None;
    stats = Stats.create ();
  }

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

let table_sizes engine =
  [
    ("posts_index_keys", Atom_index.key_count engine.posts_index);
    ("heads_index_keys", Atom_index.key_count engine.heads_index);
    ("components", Hashtbl.length engine.comps);
    ("entries", Hashtbl.length engine.entries);
    ("dirty", Hashtbl.length engine.dirty);
  ]

let total_coordinated engine = engine.satisfied

let stats engine = engine.stats

let last_degradation engine = engine.last_degradation

let last_inventory_conflict engine = engine.last_conflict

let set_quiet engine e quiet =
  if e.quiet <> quiet then begin
    let c = Hashtbl.find engine.comps e.comp in
    c.unquiet <- (c.unquiet + if quiet then -1 else 1);
    e.quiet <- quiet
  end

let mark_dirty engine id =
  set_quiet engine (Hashtbl.find engine.entries id) false;
  Hashtbl.replace engine.dirty id ()

(* Cache a verdict that lets [ids] skip the next flush; [quiet] only
   for a safe, complete evaluation that fired nothing. *)
let mark_clean engine ~quiet ids =
  List.iter
    (fun id ->
      set_quiet engine (Hashtbl.find engine.entries id) quiet;
      Hashtbl.remove engine.dirty id)
    ids

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
  List.iteri
    (fun i a -> Atom_index.add engine.posts_index a (e.id, i))
    e.query.Query.post;
  List.iteri
    (fun i a -> Atom_index.add engine.heads_index a (e.id, i))
    e.query.Query.head

let unindex_entry engine e =
  let is_me (id, _) = id = e.id in
  List.iter
    (fun a -> Atom_index.remove engine.posts_index a is_me)
    e.query.Query.post;
  List.iter
    (fun a -> Atom_index.remove engine.heads_index a is_me)
    e.query.Query.head

(* The coordination edges [q] would have as pool entry [id]: an edge
   exists when a postcondition is {!Coordination_graph.compatible} with
   a head.  Returns [q]'s out-edges — into pooled heads, plus its own
   post x head self-loops, which {!Coordination_graph.build} has too and
   safety and pruning read — and its in-edges from pooled posts.
   Compatibility only inspects relation symbols and constants, so
   probing the original atoms finds exactly the edges of the renamed
   ones. *)
let probe_edges engine ~id (q : Query.t) =
  let edge src post_index dst head_index =
    { Coordination_graph.src; post_index; dst; head_index }
  in
  let out = ref [] and inc = ref [] in
  List.iteri
    (fun pi p ->
      List.iter
        (fun (_, (dst, hi)) -> out := edge id pi dst hi :: !out)
        (Atom_index.probe engine.heads_index p);
      List.iteri
        (fun hi h ->
          if Coordination_graph.compatible p h then
            out := edge id pi id hi :: !out)
        q.Query.head)
    q.Query.post;
  List.iteri
    (fun hi h ->
      List.iter
        (fun (_, (src, pi)) -> inc := edge src pi id hi :: !inc)
        (Atom_index.probe engine.posts_index h))
    q.Query.head;
  (!out, !inc)

(* A component of one member, keyed by its id. *)
let singleton engine e =
  e.comp <- e.id;
  Hashtbl.replace engine.comps e.id
    { members = [ e.id ]; unquiet = (if e.quiet then 0 else 1) }

(* Fuse the components of [a] and [b]: the smaller member list takes the
   larger one's key, so an entry is relabelled O(log pool) times. *)
let fuse engine a b =
  if a.comp <> b.comp then begin
    let ca = Hashtbl.find engine.comps a.comp in
    let cb = Hashtbl.find engine.comps b.comp in
    let key, gone, small, large =
      if List.compare_lengths ca.members cb.members < 0 then
        (b.comp, a.comp, ca, cb)
      else (a.comp, b.comp, cb, ca)
    in
    List.iter
      (fun id -> (Hashtbl.find engine.entries id).comp <- key)
      small.members;
    Hashtbl.remove engine.comps gone;
    large.members <- List.rev_append small.members large.members;
    large.unquiet <- large.unquiet + small.unquiet
  end

let fuse_out engine e =
  List.iter
    (fun (ed : Coordination_graph.edge) ->
      fuse engine e (Hashtbl.find engine.entries ed.dst))
    e.out

(* Admit a query into the pool.  This is where all persistent state is
   maintained: probe the indexes for the arrival's edges (before
   indexing its own atoms, whose self-loops come from its own post x
   head pairs), store each edge with its source, fuse the components
   the edges join, and mark the (possibly fused) component dirty.

   [admit] takes the id explicitly so recovery replay (lib/durable) can
   re-admit entries under their journaled ids; live submissions go
   through [add_entry], which allocates the next id. *)
let admit engine ~id query =
  if id >= engine.next_id then engine.next_id <- id + 1;
  let out, inc = probe_edges engine ~id query in
  let e =
    {
      id;
      query;
      renamed = Query.rename_apart id query;
      out;
      comp = id;
      quiet = false;
    }
  in
  Hashtbl.replace engine.entries id e;
  singleton engine e;
  List.iter
    (fun (ed : Coordination_graph.edge) ->
      let src = Hashtbl.find engine.entries ed.src in
      src.out <- ed :: src.out;
      fuse engine src e)
    inc;
  fuse_out engine e;
  index_entry engine e;
  mark_dirty engine id;
  e

let add_entry engine query = admit engine ~id:engine.next_id query

(* Remove [ids] from the pool, dissolving their components: every
   surviving member drops its edges into the retired ids and restarts
   as a singleton keyed by its own id, then the survivors fuse again
   along their out-edges.  Union is symmetric, so out-edges alone reach
   every surviving edge.  Survivors are marked dirty — retirement
   shrinks their component, which can newly enable a coordinating set
   among the remainder (the fired set may have been what made a
   candidate unsafe or over-constrained). *)
let retire engine ids =
  let keys =
    List.sort_uniq Int.compare
      (List.map (fun id -> (Hashtbl.find engine.entries id).comp) ids)
  in
  let members =
    List.concat_map (fun k -> (Hashtbl.find engine.comps k).members) keys
  in
  List.iter (Hashtbl.remove engine.comps) keys;
  List.iter
    (fun id ->
      let e = Hashtbl.find engine.entries id in
      unindex_entry engine e;
      Hashtbl.remove engine.entries id;
      Hashtbl.remove engine.dirty id)
    ids;
  let survivors = List.filter_map (Hashtbl.find_opt engine.entries) members in
  List.iter
    (fun e ->
      let live (ed : Coordination_graph.edge) =
        Hashtbl.mem engine.entries ed.dst
      in
      e.out <- List.filter live e.out;
      singleton engine e)
    survivors;
  List.iter
    (fun e ->
      fuse_out engine e;
      mark_dirty engine e.id)
    survivors

let components engine =
  let live = live_entries engine in
  let position = Hashtbl.create (2 * List.length live) in
  List.iteri (fun i e -> Hashtbl.replace position e.id i) live;
  Hashtbl.fold
    (fun _ c acc ->
      List.sort Int.compare (List.map (Hashtbl.find position) c.members)
      :: acc)
    engine.comps []
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

(* The coordination graph of one component (live ids, ascending),
   assembled from the stored edges: the member with the [i]-th smallest
   id is query [i]. *)
let component_graph engine ids =
  let sorted = Array.of_list ids in
  (* The position of a member id: binary search over the sorted ids. *)
  let at id =
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < id then go (mid + 1) hi
      else if sorted.(mid) > id then go lo mid
      else mid
    in
    go 0 (Array.length sorted)
  in
  let members = List.map (Hashtbl.find engine.entries) ids in
  Coordination_graph.of_edges
    (Array.of_list (List.map (fun e -> e.renamed) members))
    (List.concat_map
       (fun e ->
         List.map
           (fun (ed : Coordination_graph.edge) ->
             { ed with src = at ed.src; dst = at ed.dst })
           e.out)
       members)

(* Evaluate one component, given as a list of live ids in ascending
   order; on success retire the members and report them. *)
let evaluate engine ids =
  let id_of_position = Array.of_list ids in
  let solved =
    Obs.with_span
      ~args:(fun () -> [ ("queries", Obs.Int (List.length ids)) ])
      "scc.solve"
    @@ fun () ->
    (* Assembling the graph is this engine's graph construction: charge
       it where Scc_algo.solve charges its rebuild. *)
    let graph, graph_ns =
      Obs.timed_span "scc.graph" (fun () -> component_graph engine ids)
    in
    let result = Scc_algo.solve_graph engine.db graph in
    Result.iter
      (fun (o : Scc_algo.outcome) ->
        o.stats.graph_ns <- Int64.add o.stats.graph_ns graph_ns;
        o.stats.total_ns <- Int64.add o.stats.total_ns graph_ns)
      result;
    result
  in
  match solved with
  | Error (Scc_algo.Not_safe ws) ->
    (* An unsafe component cannot fire until its membership or the
       database changes — both mark it dirty again — so its verdict
       caches like a quiescent one, without being quiet: it must still
       reject an arrival. *)
    mark_clean engine ~quiet:false ids;
    Error ws
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
      if outcome.degraded = None then mark_clean engine ~quiet:true ids;
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
        (Some { queries = satisfied_queries; assignment = solution.assignment }))

(* The ids of the component containing [e], ascending. *)
let component_of engine (e : entry) =
  List.sort Int.compare (Hashtbl.find engine.comps e.comp).members

(* Whether the just-admitted [e] provably leaves its component quiet
   (DESIGN.md §2c, "Proven-quiet arrivals"): some postcondition of [e]
   has no out-edge, self-loops included, so pruning removes [e] first
   and leaves every other member's status alone; if every other member
   is quiet, every candidate of the fused component was already probed
   and failed against this store.  O(posts x out-edges of [e]): the
   component's [unquiet] count answers for the other members. *)
let proven_quiet engine (e : entry) =
  let rec has_out pi = function
    | [] -> false
    | (ed : Coordination_graph.edge) :: rest ->
      ed.post_index = pi || has_out pi rest
  in
  let rec unmatched pi = function
    | [] -> false
    | _ :: posts -> (not (has_out pi e.out)) || unmatched (pi + 1) posts
  in
  unmatched 0 e.query.Query.post
  && (Hashtbl.find engine.comps e.comp).unquiet = if e.quiet then 0 else 1

let submit engine query =
  Obs.with_span
    ~args:(fun () ->
      [
        ("query", Obs.Str query.Query.name);
        ("pool", Obs.Int (Hashtbl.length engine.entries));
      ])
    "online.submit"
  @@ fun () ->
  begin_op engine;
  let e = add_entry engine query in
  emit engine (Journal.Submitted { id = e.id; query });
  let result =
    if proven_quiet engine e then begin
      mark_clean engine ~quiet:true [ e.id ];
      Pending
    end
    else
      match evaluate engine (component_of engine e) with
      | Error ws ->
        (* Do not admit a query that makes its component unsafe. *)
        retire engine [ e.id ];
        emit engine (Journal.Rejected { id = e.id });
        Rejected_unsafe ws
      | Ok None -> Pending
      | Ok (Some c) -> Coordinated c
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
   dirty by [retire]; the next flush, or a submit that joins them,
   re-evaluates them. *)
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
  let keys = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id () -> Hashtbl.replace keys (Hashtbl.find engine.entries id).comp ())
    engine.dirty;
  Hashtbl.fold
    (fun key () acc ->
      List.sort Int.compare (Hashtbl.find engine.comps key).members :: acc)
    keys []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* Evaluate the dirty components in order of their smallest member id,
   restarting after every fire, until a fixpoint: removing one satisfied
   set can newly enable another among the remainder. *)
let flush_dirty engine =
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
        | Ok None | Error _ -> try_components rest)
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
  let fired = flush_dirty engine in
  emit engine
    (Journal.Op_end { op = Journal.Flush_op; fired = List.length fired });
  sync_db_version engine;
  fired

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
  let fired = flush_dirty engine in
  emit engine
    (Journal.Op_end { op = Journal.Submit_all_op; fired = List.length fired });
  sync_db_version engine;
  fired

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
