(** Online (incremental) coordination.

    Section 6.1 describes how the SCC algorithm sits inside a running
    system: "when a new query arrives, the system finds the set of
    queries this query can coordinate with and updates the coordination
    graph accordingly.  The system then calls an evaluation method on
    the connected component that the query belongs to ... the system
    then deletes these queries from its data structures and continues to
    process the next query that arrives."  Section 7 asks for exactly
    this online setting.  This module implements it.

    An engine holds a pool of pending queries.  Submitting a query adds
    it to the pool and evaluates only the weakly connected component of
    the coordination graph that contains it, selecting a largest
    candidate ({!Scc_algo.Largest}); a found coordinating set is
    reported and its members leave the pool.  A batch arrives through
    {!submit_all}, which admits every query first and then evaluates the
    touched components as {!flush} does — equivalent to one
    {!Scc_algo.solve} per component.

    {2 Incremental state}

    The engine never rebuilds the coordination graph of the whole pool.
    It maintains persistent per-engine state instead, the shape Chen et
    al.'s {e enmeshed queries} system uses for this workload:

    - an {b atom index} keyed by relation symbol and first-argument
      constant ({!Coordination_graph.Atom_index}) over the pool's
      postcondition and head atoms, so a new arrival discovers its
      coordination edges by probing the index instead of re-unifying
      against every pooled query;
    - {b stored edges}: each entry keeps its query renamed apart once,
      by pool id, and its outgoing extended edges (self-loops
      included).  Evaluation hands {!Scc_algo.solve_graph} the
      component's graph assembled from them
      ({!Coordination_graph.of_edges}); nothing is renamed or rebuilt
      per evaluation;
    - a {b partition keyed by live entries}: every entry names its
      weakly connected component by a live member's id, a fuse
      relabels the smaller member list, and a retirement re-fuses only
      the survivors along their stored edges;
    - {b dirty-component tracking}: {!flush} and {!submit_all}
      re-evaluate only components touched since their last evaluation —
      a new member, a retirement, or any database mutation
      ({!Relational.Database.data_version}) marks a component dirty;
      untouched components provably cannot fire (evaluation is
      deterministic and already found nothing), so their cached outcome
      stands.  Degraded evaluations (see {!Resilient}) stay dirty.

    Per-submission cost is O(edges touched), not O(pool²), and every
    table is bounded by the live pool ({!table_sizes}).  The test
    suite keeps a rebuild-everything reference engine
    ([test/online_oracle.ml]) that re-derives the components of the
    whole pool on every evaluation; the engine must fire the same sets,
    keep the same pool and book the same inventory for every
    interleaving of operations. *)

open Relational
open Entangled

type t

val create : ?consume:bool -> Database.t -> t
(** [consume] (default [false]): when a set coordinates, delete the
    grounded body tuples its members used from the database — each tuple
    is one bookable unit (a flight seat block, a class section), so later
    arrivals cannot coordinate on spent inventory. *)

val consume : t -> bool

type coordinated = {
  queries : Query.t list;        (** the satisfied queries, in pool order *)
  assignment : Eval.valuation;
      (** over the members' variables, renamed apart by pool id: member
          [id]'s variable [x] is ["q<id>.x"] *)
}

type submission =
  | Coordinated of coordinated  (** a set fired; its members left the pool *)
  | Pending                      (** enqueued, waiting for partners *)
  | Rejected_unsafe of (int * int) list
      (** the component became unsafe; the new query was NOT admitted *)

val submit : ?id:int -> t -> Query.t -> submission
(** Submit one query.  The arrival's component is evaluated, except
    when the arrival is {e proven quiet}: one of its postconditions has
    no coordination edge (not even a self-loop), and every other member
    of the component it joins is quiet — its component's last complete
    evaluation, with the same members and store, was safe and fired
    nothing.  Pruning then removes the
    arrival first and leaves every other candidate as it was, so the
    answer is [Pending] without a solve (DESIGN.md §2c).  The journal
    is the same either way.  [?id] forces the admitted entry's pool id
    — the hook a sharded orchestrator ({!Online_sharded}) uses to keep
    one global id space across per-shard pools; it must be at least
    {!next_id}.
    @raise Invalid_argument if [id] is below {!next_id}. *)

val submit_all : t -> Query.t list -> coordinated list
(** Batched submission: admit the whole batch, then evaluate pending
    components as {!flush} does.  One index/graph maintenance pass per
    query and one evaluation per touched component, instead of one
    component evaluation per submission — the batched counterpart of
    {!submit}.  Queries whose component is unsafe are left pending
    (there is no single arrival to reject). *)

val flush : t -> coordinated list
(** Evaluate the pending pool's weakly connected components that were
    touched since their last evaluation, in order of their smallest
    member, until no set fires; satisfied sets leave the pool.  Returns
    them in discovery order.  {!Online_sharded} is the parallel
    counterpart. *)

val withdraw : t -> int -> bool
(** [withdraw engine id] removes the pending entry with pool id [id]
    (see {!pending_entries}) without satisfying it — the online
    counterpart of a client cancelling an offer it no longer wants.
    Returns [false] when [id] is not live (never admitted, already
    coordinated, or already withdrawn); the engine is unchanged.
    Journaled as an eviction, so a durable session replays it exactly.
    Removal can newly enable a coordinating set among the remaining
    pool members; the affected component is re-evaluated at the next
    {!flush}, or {!submit} of a query that joins it. *)

val pending : t -> Query.t list
(** Queries still waiting, in submission order. *)

val pending_entries : t -> (int * Query.t) list
(** Queries still waiting with their pool ids, in submission (= id)
    order.  Ids are allocated in submission order and never reused, so
    they are stable names for entries across retirements — the identity
    a write-ahead log journals and a recovery replays
    (see [lib/durable]). *)

val next_id : t -> int
(** The id the next admitted entry will receive (strictly greater than
    every id ever admitted, live or retired). *)

val pending_count : t -> int

val table_sizes : t -> (string * int) list
(** The sizes of the engine's internal tables, by name — a debug and
    gauge accessor: ["posts_index_keys"] and ["heads_index_keys"]
    (first-constant keys of the two atom indexes,
    {!Entangled.Coordination_graph.Atom_index.key_count}),
    ["components"], ["entries"] and ["dirty"].  Each is bounded by the
    live pool: a retired or fired entry's keys leave with it. *)

val touched : t -> Query.t -> int list
(** The live ids, ascending, of every component the query has a
    coordination edge with — found by the index probe admission runs,
    without admitting it.  {!Online_sharded} routes arrivals by it. *)

val component_graph : t -> int list -> Coordination_graph.t
(** The coordination graph evaluation hands to
    {!Scc_algo.solve_graph} for a component (its live ids, ascending):
    assembled from the edges stored at admission, over the members'
    queries renamed apart by pool id, the [i]-th smallest id being
    query [i]. *)

val components : t -> int list list
(** The weakly-connected-component partition of the pending pool, as
    lists of positions into {!pending} (each sorted ascending,
    components ordered by their first member).  Exposed for diagnostics
    and differential testing; this reads the partition instead of
    traversing a rebuilt graph. *)

val total_coordinated : t -> int
(** Queries satisfied over the engine's lifetime. *)

val stats : t -> Stats.t
(** Cumulative solver statistics across all evaluations (folded with
    {!Stats.merge}). *)

val last_degradation : t -> Resilient.degradation option
(** [Some _] when the most recent {!submit}, {!submit_all} or {!flush}
    hit an armed-guard limit mid-evaluation (see {!Resilient}): the
    underlying solve returned a degraded outcome, so some component may
    hold a coordinating set that was never probed.  Cleared at the start
    of the next operation.  A degraded component stays dirty and is
    re-evaluated by the next [flush]. *)

type inventory_conflict = {
  double_spent : (string * Tuple.t) list;
      (** tuples demanded by more than one member of the fired set:
          one unit of inventory cannot serve two bookings.  The tuple is
          deleted once; the set still fires (its members genuinely
          coordinated), but the conflict is reported so the caller can
          compensate. *)
  missing : (string * Tuple.t) list;
      (** tuples a fired member grounded onto that were already absent
          at booking time *)
}

val last_inventory_conflict : t -> inventory_conflict option
(** [Some _] when the most recent fired set's inventory booking
    (engine created with [consume:true]) double-demanded or missed a
    tuple — see {!inventory_conflict}.  Cleared at the start of the next
    {!submit}, {!submit_all} or {!flush}. *)

(** {2 Durability hooks}

    The engine itself is purely in-memory; [lib/durable] makes it
    crash-recoverable by journaling {e effects} (admissions,
    retirements, the two-phase consume commit's deduplicated deletion
    list) through a {!Journal.sink} and replaying them through the
    [restore_*] functions below.  Replay never re-evaluates a
    component: which sets fired and which tuples were booked comes from
    the journal, so a recovery cannot fire a different set or
    double-spend inventory, whatever the crash point. *)

module Journal : sig
  (** Which public operation a record group belongs to. *)
  type op = Submit_op | Submit_all_op | Flush_op | Withdraw_op

  type record =
    | Submitted of { id : int; query : Query.t }
        (** an entry joined the pool under [id] *)
    | Rejected of { id : int }
        (** {!submit} admitted [id], found its component unsafe
            and evicted it (no satisfied-count change) *)
    | Retired of { ids : int list }
        (** a fired set left the pool; the lifetime satisfied count
            grew by [List.length ids] *)
    | Consumed of { deletions : (string * Tuple.t) list }
        (** the deduplicated inventory deletions actually issued by the
            two-phase consume commit, in first-demand order — each
            deleted exactly once *)
    | Op_end of { op : op; fired : int }
        (** the operation finished having fired [fired] sets; the
            atomic commit boundary for everything since the previous
            [Op_end] *)

  type sink = record -> unit
end

val set_journal : t -> Journal.sink option -> unit
(** Install (or remove) the journal sink.  Records are emitted at the
    points where the engine commits state: after an admission, after a
    fired set's retirement, after the consume pass resolves its
    deletion list, and once per public operation as {!Journal.Op_end}.
    [lib/durable] installs the WAL's sink; {!Online_sharded} installs
    one on a shard around each operation it commits on the calling
    domain, to drop retired and rejected ids from its routing table. *)

val restore_submit : t -> id:int -> Query.t -> unit
(** Re-admit a journaled entry under its original id.  Ids must be
    replayed in increasing order.
    @raise Invalid_argument if [id] is below {!next_id}. *)

val restore_retire : t -> int list -> unit
(** Re-apply a journaled retirement: the (live) ids leave the pool and
    the lifetime satisfied count grows by their number.
    @raise Invalid_argument if any id is not live. *)

val restore_evict : t -> int -> unit
(** Re-apply a journaled unsafe rejection: the (live) id leaves the
    pool with no satisfied-count change.
    @raise Invalid_argument if the id is not live. *)

val restore_counters : t -> satisfied:int -> next_id:int -> unit
(** Restore the lifetime satisfied count and the id allocator from a
    snapshot (retired ids may exceed every live id, so neither can be
    derived from the restored pool).
    @raise Invalid_argument if [next_id] would re-issue an admitted id. *)

(** {2 Sharding hooks}

    {!Online_sharded} runs one incremental engine per shard over
    {!Relational.Database.worker_view}s and owns the public-operation
    boundary itself.  These hooks expose exactly the internal steps it
    orchestrates; none of them journal an {!Journal.Op_end}. *)

type fired = {
  f_key : int;
      (** smallest live member id of the component that was {e
          evaluated} at fire time (not of the fired subset — a remnant
          can refire under the same key).  Per-engine fire streams are
          non-decreasing in [f_key] when the store does not move during
          the flush, so a stable merge by key across shards reproduces
          the sequential fire order. *)
  f_ids : int list;  (** pool ids of the fired set's members *)
  f_set : coordinated;
}

val prepare_op : t -> unit
(** The start-of-operation step every public entry point performs:
    clear the previous operation's degradation/conflict verdicts and
    absorb external database mutations into the dirty set.  An
    orchestrator calls it on {e every} shard before an operation, so a
    mutation between operations dirties each shard's pool exactly as it
    would dirty the sequential engine's whole pool. *)

val finish_op : t -> unit
(** The end-of-operation step: absorb the operation's own inventory
    deletions (monotone, so cached "cannot fire" verdicts survive).
    Call on every shard after an operation — other shards' deletions
    must not re-dirty this shard's pool, just as the sequential
    engine's own deletions do not re-dirty its pool. *)

val flush_fired : t -> fired list
(** {!flush} without the operation bracket: evaluate due components to
    fixpoint and return the fired sets with their merge keys.  The
    caller is responsible for {!prepare_op}/{!finish_op} and the
    journal boundary. *)

val due_components : t -> int list list
(** The components the next flush round must (re-)evaluate, as
    ascending id lists ordered by smallest member — the order the
    sequential flush tries them in. *)

val evaluate_due : t -> int list -> [ `Fired of fired | `Quiet | `Unsafe ]
(** Evaluate one due component (an ascending id list from
    {!due_components}), committing retirement/consumption on a fire and
    caching quiescent and unsafe verdicts exactly as the sequential
    flush would.  The consume-mode sharded flush uses this to commit
    components one at a time in the global canonical order, because
    inventory deletions couple components across shards. *)

type moved = {
  mv_id : int;
  mv_query : Query.t;
  mv_dirty : bool;  (** its component was awaiting re-evaluation *)
  mv_quiet : bool;
      (** its component's last complete evaluation was safe and fired
          nothing (see {!submit}); a record built for a fresh arrival
          passes [false] *)
}
(** A detached entry: its pool id, query and cached verdict. *)

val detach : t -> int list -> moved list
(** Remove the given live ids from this engine and return them for
    re-admission elsewhere, preserving their dirtiness.  The ids must
    cover whole components (a migration moves components, never splits
    them); nothing is journaled and the satisfied count is unchanged.
    @raise Invalid_argument if any id is not live. *)

val attach : t -> moved list -> unit
(** Re-admit detached entries under their original ids (pass them in
    ascending id order).  Coordination edges among the attached entries
    and the existing pool are rediscovered from the atom indexes;
    entries that were clean stay clean — migration alone re-evaluates
    nothing.  Nothing is journaled.
    @raise Invalid_argument if an id is already live. *)
