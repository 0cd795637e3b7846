open Relational
open Entangled
module Atom_index = Coordination_graph.Atom_index

(* Tables keyed by pool id: ids are small non-negative ints, so they
   hash to themselves, with no call into the polymorphic hash. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

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
  type record =
    | Submitted of { id : int; query : Query.t }
    | Rejected of { id : int }  (** admitted then evicted as unsafe *)
    | Retired of { ids : int list }  (** a fired set left the pool *)
    | Consumed of { deletions : (string * Tuple.t) list }
    | Op_end

  type sink = record -> unit
end

(* One pooled query.  [query] is the query as submitted (journaled,
   reported and evaluated: the solver names a variable by its member
   and local index, not by a renamed string, and only a fired set's
   witness, when one is asked for, spells its variables ["q<id>.x"]),
   so a pending entry keeps one copy of the query and evaluation
   copies none.  [out] holds the entry's outgoing extended coordination
   edges, [src] = its own id and [dst] a live pool id (itself for a
   self-loop): together the entries' out-lists are the pool's
   coordination graph, discovered once at admission and never rebuilt.
   [comp] names the entry's weakly connected component by the id of
   one of its live members.  [quiet] holds when the component's last
   complete evaluation, with its current members and the current
   store, was safe and fired nothing; a component is quiet iff every
   member is.  [store_free] holds when the entry's cached verdict
   (clean, quiet or not) depends on the pool alone, so no store write
   can change it; otherwise the verdict read the store through the
   entry's body (see [reads]).  Ids are submission order and never
   reused; an id is live iff it is present in [entries].  [quiet]
   changes only through [set_quiet], which keeps the owning
   component's [unquiet] count in step. *)
type entry = {
  id : int;
  query : Query.t;
  mutable out : Coordination_graph.edge list;
  mutable comp : int;
  mutable quiet : bool;
  mutable store_free : bool;
}

(* One weakly connected component: its live member ids and how many of
   them are not quiet, so "is the component quiet" is [unquiet = 0]
   without walking the members. *)
type comp = { mutable members : int list; mutable unquiet : int }

type t = {
  db : Database.t;
  consume : bool;
  entries : entry Ids.t;  (* the live pool, keyed by id *)
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
  comps : comp Ids.t;
  dirty : unit Ids.t;
  mutable db_version : int;
  mutable satisfied : int;
  mutable last_degradation : Resilient.degradation option;
  mutable last_conflict : inventory_conflict option;
  mutable journal : Journal.sink option;
  stats : Stats.t;
  mutable admit_ns : int;  (* [stats.admit_ns], kept unboxed *)
}

let create ?(consume = false) db =
  {
    db;
    consume;
    entries = Ids.create 64;
    next_id = 0;
    posts_index = Atom_index.create ();
    heads_index = Atom_index.create ();
    comps = Ids.create 64;
    dirty = Ids.create 64;
    db_version = Database.data_version db;
    satisfied = 0;
    last_degradation = None;
    last_conflict = None;
    journal = None;
    stats = Stats.create ();
    admit_ns = 0;
  }

let consume engine = engine.consume
let set_journal engine sink = engine.journal <- sink

let emit engine record =
  match engine.journal with None -> () | Some sink -> sink record

(* Live entries in submission (= id) order. *)
let live_entries engine =
  Ids.fold (fun _ e acc -> e :: acc) engine.entries []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let pending engine = List.map (fun e -> e.query) (live_entries engine)

let pending_entries engine =
  List.map (fun e -> (e.id, e.query)) (live_entries engine)

let next_id engine = engine.next_id

let pending_count engine = Ids.length engine.entries

let table_sizes engine =
  [
    ("posts_index_keys", Atom_index.key_count engine.posts_index);
    ("heads_index_keys", Atom_index.key_count engine.heads_index);
    ("components", Ids.length engine.comps);
    ("entries", Ids.length engine.entries);
    ("dirty", Ids.length engine.dirty);
  ]

let total_coordinated engine = engine.satisfied

let stats engine =
  engine.stats.admit_ns <- Int64.of_int engine.admit_ns;
  engine.stats

let last_degradation engine = engine.last_degradation

let last_inventory_conflict engine = engine.last_conflict

let set_quiet engine e quiet =
  if e.quiet <> quiet then begin
    let c = Ids.find engine.comps e.comp in
    c.unquiet <- (c.unquiet + if quiet then -1 else 1);
    e.quiet <- quiet
  end

let mark_dirty engine id =
  set_quiet engine (Ids.find engine.entries id) false;
  Ids.replace engine.dirty id ()

(* Cache a verdict that lets [ids] skip the next flush; [quiet] only
   for a safe, complete evaluation that fired nothing, [store_free]
   only for one no store write can change. *)
let mark_clean engine ~quiet ~store_free ids =
  Array.iter
    (fun id ->
      let e = Ids.find engine.entries id in
      set_quiet engine e quiet;
      e.store_free <- store_free;
      Ids.remove engine.dirty id)
    ids

(* Whether an evaluation can read relation [rel] through [q]: [q]'s
   body names it.  A fired set unifies every postcondition with a
   member's head, so only a head variable outside its own body can be
   left unbound by the body answers; {!Ground.solve} then takes a value
   from the store's active domain, and fails on an empty store.  Such a
   query reads every relation: an insert anywhere can end an empty
   store.  Asked only of clean, store-dependent entries when a relation
   grows, never on the admission path. *)
let reads (q : Query.t) rel =
  List.exists (fun (a : Cq.atom) -> a.Cq.rel = rel) q.Query.body.Cq.atoms
  ||
  let body = Cq.variables q.Query.body in
  not
    (List.for_all
       (fun a -> List.for_all (fun x -> List.mem x body) (Cq.atom_variables a))
       q.Query.head)

let c_store_redirty =
  Obs.Counter.declare ~help:"pool entries a store write re-dirtied"
    "online.store_redirty"

(* Absorb the store writes made since the engine last looked (repl
   [fact] statements, the protocol's inserts), re-dirtying exactly the
   cached verdicts they can change (DESIGN.md §2c): a store-free verdict
   survives every write; deletes re-dirty nothing, as conjunctive
   queries are monotone; an insert into (or the creation of) a relation
   re-dirties a verdict that read the store only if it read that
   relation.  The stamp is per-database, so only writes to *this*
   engine's database are seen. *)
let refresh_db_version engine =
  let v = Database.data_version engine.db in
  if v <> engine.db_version then begin
    let grown = Database.grown_since engine.db engine.db_version in
    engine.db_version <- v;
    if grown <> [] then begin
      let redirtied = ref 0 in
      Ids.iter
        (fun id e ->
          if
            (not (e.store_free || Ids.mem engine.dirty id))
            && List.exists (reads e.query) grown
          then begin
            mark_dirty engine id;
            incr redirtied
          end)
        engine.entries;
      Obs.Counter.add c_store_redirty !redirtied
    end
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
      Atom_index.iter engine.heads_index p (fun (dst, hi) ->
          out := edge id pi dst hi :: !out);
      List.iteri
        (fun hi h ->
          if Coordination_graph.compatible p h then
            out := edge id pi id hi :: !out)
        q.Query.head)
    q.Query.post;
  List.iteri
    (fun hi h ->
      Atom_index.iter engine.posts_index h (fun (src, pi) ->
          inc := edge src pi id hi :: !inc))
    q.Query.head;
  (!out, !inc)

(* A component of one member, keyed by its id. *)
let singleton engine e =
  e.comp <- e.id;
  Ids.replace engine.comps e.id
    { members = [ e.id ]; unquiet = (if e.quiet then 0 else 1) }

(* Fuse the components of [a] and [b]: the smaller member list takes the
   larger one's key, so an entry is relabelled O(log pool) times. *)
let fuse engine a b =
  if a.comp <> b.comp then begin
    let ca = Ids.find engine.comps a.comp in
    let cb = Ids.find engine.comps b.comp in
    let key, gone, small, large =
      if List.compare_lengths ca.members cb.members < 0 then
        (b.comp, a.comp, ca, cb)
      else (a.comp, b.comp, cb, ca)
    in
    List.iter
      (fun id -> (Ids.find engine.entries id).comp <- key)
      small.members;
    Ids.remove engine.comps gone;
    large.members <- List.rev_append small.members large.members;
    large.unquiet <- large.unquiet + small.unquiet
  end

let fuse_out engine e =
  List.iter
    (fun (ed : Coordination_graph.edge) ->
      fuse engine e (Ids.find engine.entries ed.dst))
    e.out

(* Admit a query into the pool.  This is where all persistent state is
   maintained: probe the indexes for the arrival's edges (before
   indexing its own atoms, whose self-loops come from its own post x
   head pairs), store each edge with its source, and fuse the
   components the edges join.  The caller marks the arrival dirty, or
   clean when it is proven quiet.

   [admit] takes the id explicitly so recovery replay (lib/durable) can
   re-admit entries under their journaled ids; live submissions go
   through [admit_timed], which allocates the next id. *)
let admit engine ~id query =
  if id >= engine.next_id then engine.next_id <- id + 1;
  let out, inc = probe_edges engine ~id query in
  let e =
    {
      id;
      query;
      out;
      comp = id;
      quiet = false;
      store_free = false;
    }
  in
  Ids.replace engine.entries id e;
  singleton engine e;
  List.iter
    (fun (ed : Coordination_graph.edge) ->
      let src = Ids.find engine.entries ed.src in
      src.out <- ed :: src.out;
      fuse engine src e)
    inc;
  fuse_out engine e;
  index_entry engine e;
  e

(* Remove [ids] from the pool, dissolving their components: every
   surviving member drops its edges into the retired ids and restarts
   as a singleton keyed by its own id, then the survivors fuse again
   along their out-edges.  Union is symmetric, so out-edges alone reach
   every surviving edge.  Survivors are marked dirty — retirement
   shrinks their component, which can newly enable a coordinating set
   among the remainder (the fired set may have been what made a
   candidate unsafe or over-constrained). *)
let retire engine ids =
  (* A fired set lies in one component: its distinct keys are few. *)
  let keys =
    List.fold_left
      (fun keys id ->
        let k = (Ids.find engine.entries id).comp in
        if List.mem k keys then keys else k :: keys)
      [] ids
    |> List.sort Int.compare
  in
  let members =
    List.concat_map (fun k -> (Ids.find engine.comps k).members) keys
  in
  List.iter (Ids.remove engine.comps) keys;
  List.iter
    (fun id ->
      let e = Ids.find engine.entries id in
      unindex_entry engine e;
      Ids.remove engine.entries id;
      Ids.remove engine.dirty id)
    ids;
  let survivors = List.filter_map (Ids.find_opt engine.entries) members in
  List.iter
    (fun e ->
      let live (ed : Coordination_graph.edge) =
        Ids.mem engine.entries ed.dst
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
  let position = Ids.create (2 * List.length live) in
  List.iteri (fun i e -> Ids.replace position e.id i) live;
  Ids.fold
    (fun _ c acc ->
      List.sort Int.compare (List.map (Ids.find position) c.members)
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
let consume_inventory engine (o : Scc_algo.outcome) (c : Scc_algo.candidate) =
  let deletions =
    List.filter_map
      (fun (rel, tuple) ->
        match Database.relation_opt engine.db rel with
        | Some r -> Some (rel, r, tuple)
        | None -> None)
      (Combine.body_tuples (Combine.layout o.graph) ~members:c.covered
         c.values)
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
let graph_of engine ids =
  let members = Array.map (Ids.find engine.entries) ids in
  (* The position of a member id: binary search over the sorted ids. *)
  let rec at id lo hi =
    let mid = (lo + hi) / 2 in
    let m = ids.(mid) in
    if m < id then at id (mid + 1) hi else if m > id then at id lo mid else mid
  in
  let n = Array.length members in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    List.iter
      (fun (ed : Coordination_graph.edge) ->
        edges := { ed with src = i; dst = at ed.dst 0 n } :: !edges)
      members.(i).out
  done;
  Coordination_graph.of_edges (Array.map (fun e -> e.query) members) !edges

let component_graph engine ids = graph_of engine (Array.of_list ids)

(* Assemble and solve one component.  Assembling the graph is this
   engine's graph construction: charge it where Scc_algo.solve charges
   its rebuild. *)
let solve_component engine ids =
  let d = Obs.enter () in
  let t0 = Obs.now_ns_int () in
  let graph = graph_of engine ids in
  let graph_ns = Int64.of_int (Obs.leave d "scc.graph" ~t0 - t0) in
  let result = Scc_algo.solve_graph ~ids engine.db graph in
  (match result with
  | Ok o ->
    o.stats.graph_ns <- Int64.add o.stats.graph_ns graph_ns;
    o.stats.total_ns <- Int64.add o.stats.total_ns graph_ns
  | Error _ -> ());
  result

let solve_args _ ids = [ ("queries", Obs.Int (Array.length ids)) ]

(* Evaluate one component, given as an array of live ids in ascending
   order; on success retire the members and report them, with their
   assignment when [witness] asks for it. *)
let evaluate engine ~witness ids =
  let solved = Obs.span "scc.solve" solve_args solve_component engine ids in
  match solved with
  | Error (Scc_algo.Not_safe ws) ->
    (* Safety is a property of the graph: an unsafe component cannot
       fire until its membership changes, which marks it dirty again, so
       its verdict caches like a quiescent one and survives every store
       write — without being quiet: it must still reject an arrival. *)
    mark_clean engine ~quiet:false ~store_free:true ids;
    Error ws
  | Ok outcome -> (
    Stats.merge ~into:engine.stats outcome.stats;
    (if outcome.degraded <> None then
       engine.last_degradation <- outcome.degraded);
    match outcome.selected with
    | None ->
      (* A complete (non-degraded) quiescent evaluation is cachable: the
         component cannot fire until its membership changes or a store
         write it read grows the answers, and both mark it dirty again.
         With no probe at all, every candidate was pruned or failed to
         unify: the verdict is the pool's alone.  A degraded evaluation
         proves nothing — some candidate was never probed — so it must
         stay dirty for the next flush. *)
      if outcome.degraded = None then
        mark_clean engine ~quiet:true
          ~store_free:(outcome.stats.db_probes = 0)
          ids;
      Ok None
    | Some fired ->
      (* Commit the pool/satisfied bookkeeping BEFORE consuming
         inventory: if the deletion pass failed after the pool shrank,
         the engine would stay coherent (the set genuinely fired); the
         reverse order could delete tuples for a set never recorded as
         satisfied. *)
      let t_commit = Obs.now_ns_int () in
      let assignment =
        if witness then Scc_algo.valuation ~ids outcome fired
        else Eval.Binding.empty
      in
      let member_ids = List.map (Array.get ids) fired.covered in
      let satisfied_queries =
        List.map (fun id -> (Ids.find engine.entries id).query) member_ids
      in
      retire engine member_ids;
      engine.satisfied <- engine.satisfied + List.length satisfied_queries;
      emit engine (Journal.Retired { ids = member_ids });
      if engine.consume then consume_inventory engine outcome fired;
      engine.stats.commit_ns <-
        Int64.add engine.stats.commit_ns
          (Int64.of_int (Obs.now_ns_int () - t_commit));
      Ok (Some { queries = satisfied_queries; assignment }))

(* The ids of a component, ascending. *)
let sorted_members (c : comp) =
  let ids = Array.of_list c.members in
  Array.sort Int.compare ids;
  ids

(* Whether the just-admitted [e] provably leaves its component quiet
   (DESIGN.md §2c, "Proven-quiet arrivals"): some postcondition of [e]
   has no out-edge, self-loops included, so pruning removes [e] first
   and leaves every other member's status alone; if every other member
   is quiet, every candidate of the fused component was already probed
   and failed against this store.  O(posts x out-edges of [e]): the
   component's [unquiet] count answers for the other members. *)
let rec has_out pi = function
  | [] -> false
  | (ed : Coordination_graph.edge) :: rest ->
    ed.post_index = pi || has_out pi rest

let rec unmatched out pi = function
  | [] -> false
  | _ :: posts -> (not (has_out pi out)) || unmatched out (pi + 1) posts

let proven_quiet engine (e : entry) =
  unmatched e.out 0 e.query.Query.post
  && (Ids.find engine.comps e.comp).unquiet = if e.quiet then 0 else 1

(* Admission, timed into [admit_ns]: index probes, edge discovery,
   fuse and the proven-quiet check.  The arrival is left dirty, or
   quiet and store-free when proven quiet. *)
let admit_timed engine query =
  let t0 = Obs.now_ns_int () in
  let e = admit engine ~id:engine.next_id query in
  if proven_quiet engine e then begin
    (* The arrival is pruned whatever the store holds; the other
       members keep the verdicts, store-free or not, they had. *)
    set_quiet engine e true;
    e.store_free <- true
  end
  else mark_dirty engine e.id;
  engine.admit_ns <- engine.admit_ns + (Obs.now_ns_int () - t0);
  emit engine (Journal.Submitted { id = e.id; query });
  e

let submit_op ~witness engine query =
  begin_op engine;
  let e = admit_timed engine query in
  let result =
    (* A new entry is quiet only when it was proven quiet. *)
    if e.quiet then Pending
    else
      match
        evaluate engine ~witness (sorted_members (Ids.find engine.comps e.comp))
      with
      | Error ws ->
        (* Do not admit a query that makes its component unsafe. *)
        retire engine [ e.id ];
        emit engine (Journal.Rejected { id = e.id });
        Rejected_unsafe ws
      | Ok None -> Pending
      | Ok (Some c) -> Coordinated c
  in
  emit engine Journal.Op_end;
  sync_db_version engine;
  result

(* The public operations run inside spans that cost nothing disarmed
   ({!Obs.span}): their args and bodies are closed functions. *)
let pool_arg engine = ("pool", Obs.Int (Ids.length engine.entries))

let submit_args engine (query : Query.t) =
  [ ("query", Obs.Str query.name); pool_arg engine ]

(* One closure per [witness], made once: a submit allocates none. *)
let submit_witness = submit_op ~witness:true
let submit_bare = submit_op ~witness:false

let submit ?(witness = true) engine query =
  Obs.span "online.submit" submit_args
    (if witness then submit_witness else submit_bare)
    engine query

(* Withdraw a pending entry by pool id — the service layer's `retire`
   verb: a client takes an offer back before it coordinates.  Journaled
   as a [Rejected] effect (the replay semantics are identical to an
   unsafe eviction: the id leaves the pool with no satisfied-count
   change).  Removal can newly enable a coordinating set among the
   remainder — the withdrawn query may have been what made its
   component unsafe or over-constrained — so survivors are marked
   dirty by [retire]; the next flush, or a submit that joins them,
   re-evaluates them. *)
let withdraw_op engine id =
  begin_op engine;
  if not (Ids.mem engine.entries id) then false
  else begin
    retire engine [ id ];
    emit engine (Journal.Rejected { id });
    emit engine Journal.Op_end;
    sync_db_version engine;
    true
  end

let withdraw_args engine id = [ ("id", Obs.Int id); pool_arg engine ]

let withdraw engine id =
  Obs.span "online.withdraw" withdraw_args withdraw_op engine id

(* The components a flush round must (re-)evaluate, as ascending id
   lists ordered by smallest member.  An all-clean component was last
   evaluated (completely, to no fire) with exactly its current member set
   and database contents, so it provably cannot fire now. *)
let due_components engine =
  let keys = Ids.create 8 in
  Ids.iter
    (fun id () -> Ids.replace keys (Ids.find engine.entries id).comp ())
    engine.dirty;
  Ids.fold
    (fun key () acc -> sorted_members (Ids.find engine.comps key) :: acc)
    keys []
  |> List.sort (fun a b -> Int.compare a.(0) b.(0))

(* Evaluate the dirty components in order of their smallest member id,
   restarting after every fire, until a fixpoint: removing one satisfied
   set can newly enable another among the remainder. *)
let flush_dirty engine ~witness =
  let results = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let rec try_components = function
      | [] -> ()
      | c :: rest -> (
        match evaluate engine ~witness c with
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

let flush_op ~witness engine _pool0 =
  begin_op engine;
  let fired = flush_dirty engine ~witness in
  emit engine Journal.Op_end;
  sync_db_version engine;
  fired

let flush_args engine pool0 =
  [
    ("pool", Obs.Int pool0);
    ("remaining", Obs.Int (Ids.length engine.entries));
  ]

let flush_witness = flush_op ~witness:true
let flush_bare = flush_op ~witness:false

let flush ?(witness = true) engine =
  Obs.span "online.flush" flush_args
    (if witness then flush_witness else flush_bare)
    engine (Ids.length engine.entries)

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
  let e = admit engine ~id query in
  mark_dirty engine e.id

let restore_retire engine ids =
  List.iter
    (fun id ->
      if not (Ids.mem engine.entries id) then
        invalid_arg (Printf.sprintf "Online.restore_retire: id %d not live" id))
    ids;
  retire engine ids;
  engine.satisfied <- engine.satisfied + List.length ids

let restore_evict engine id =
  if not (Ids.mem engine.entries id) then
    invalid_arg (Printf.sprintf "Online.restore_evict: id %d not live" id);
  retire engine [ id ]

let restore_counters engine ~satisfied ~next_id =
  if next_id < engine.next_id then
    invalid_arg "Online.restore_counters: next_id below an admitted id";
  engine.satisfied <- satisfied;
  engine.next_id <- next_id
