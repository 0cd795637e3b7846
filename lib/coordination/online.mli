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
    reported and its members leave the pool.  {!flush} evaluates every
    component left dirty, as one {!Scc_algo.solve} per component
    would.

    {2 Incremental state}

    The engine never rebuilds the coordination graph of the whole pool.
    It maintains persistent per-engine state instead, the shape Chen et
    al.'s {e enmeshed queries} system uses for this workload:

    - an {b atom index} keyed by relation symbol and first-argument
      constant ({!Coordination_graph.Atom_index}) over the pool's
      postcondition and head atoms, so a new arrival discovers its
      coordination edges by probing the index instead of re-unifying
      against every pooled query;
    - {b stored edges}: each entry keeps its query as submitted and its
      outgoing extended edges (self-loops included).  Evaluation hands
      {!Scc_algo.solve_graph} the component's graph assembled from them
      ({!Coordination_graph.of_edges}) over the queries as submitted:
      the solver names a variable by its member ({!Combine}), so
      nothing is renamed or rebuilt per evaluation;
    - a {b partition keyed by live entries}: every entry names its
      weakly connected component by a live member's id, a fuse
      relabels the smaller member list, and a retirement re-fuses only
      the survivors along their stored edges;
    - {b dirty-component tracking}: {!flush} re-evaluates only
      components whose cached verdict may have changed since their
      last evaluation.  A new member or a retirement marks a component
      dirty.  A store write marks it
      dirty only when it can change the verdict (DESIGN.md §2c): an
      unsafe verdict, or a "no fire" whose evaluation issued no probe,
      depends on the pool alone and survives every write; deletes
      never re-dirty, as conjunctive queries are monotone; an insert
      into (or the creation of) a table re-dirties only components
      whose verdict read the store and whose member bodies read that
      table ({!Relational.Database.grown_since}).  Untouched
      components provably cannot fire (evaluation is deterministic and
      already found nothing), so their cached outcome stands.
      Degraded evaluations (see {!Resilient}) stay dirty.  With the
      metrics registry on, the counter [online.store_redirty] counts
      the entries store writes re-dirtied.

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
      (** the witness, Definition 1's [h], when the operation was asked
          for one ([~witness:true], the default): one key per variable
          of each member, named by pool id, member [id]'s variable [x]
          being ["q<id>.x"].  [Eval.Binding.empty] under
          [~witness:false]; the fired set is the same either way. *)
}

type submission =
  | Coordinated of coordinated  (** a set fired; its members left the pool *)
  | Pending                      (** enqueued, waiting for partners *)
  | Rejected_unsafe of (int * int) list
      (** the component became unsafe; the new query was NOT admitted *)

val submit : ?witness:bool -> t -> Query.t -> submission
(** Submit one query.  The arrival's component is evaluated, except
    when the arrival is {e proven quiet}: one of its postconditions has
    no coordination edge (not even a self-loop), and every other member
    of the component it joins is quiet — its component's last complete
    evaluation, with the same members and store, was safe and fired
    nothing.  Pruning then removes the
    arrival first and leaves every other candidate as it was, so the
    answer is [Pending] without a solve (DESIGN.md §2c).  The check
    costs O(1) in the component's size: each component counts its
    members that are not quiet.  The journal is the same either way.

    [witness] (default [true]) fills a fired set's [assignment].  A
    caller that reports only the members' names ([serve], the repl)
    passes [false], and the fire builds no assignment map: the same set
    fires, the pool, inventory and journal are the same, and
    [assignment] is empty. *)

val flush : ?witness:bool -> t -> coordinated list
(** Evaluate the pending pool's weakly connected components that were
    touched since their last evaluation, in order of their smallest
    member, until no set fires; satisfied sets leave the pool.  Returns
    them in discovery order, with their assignments as {!submit}'s
    [witness] says. *)

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

val component_graph : t -> int list -> Coordination_graph.t
(** The coordination graph evaluation hands to
    {!Scc_algo.solve_graph} for a component (its live ids, ascending):
    assembled from the edges stored at admission, over the members'
    queries as submitted, the [i]-th smallest id being query [i]. *)

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
(** [Some _] when the most recent {!submit} or {!flush} hit an
    armed-guard limit mid-evaluation (see {!Resilient}): the underlying
    solve returned a degraded outcome, so some component may hold a
    coordinating set that was never probed.  Cleared at the start of
    the next operation.  A degraded component stays dirty and is
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
    {!submit} or {!flush}. *)

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
    | Op_end
        (** the operation finished: the atomic commit boundary for
            everything since the previous [Op_end] *)

  type sink = record -> unit
end

val set_journal : t -> Journal.sink option -> unit
(** Install (or remove) the journal sink.  Records are emitted at the
    points where the engine commits state: after an admission, after a
    fired set's retirement, after the consume pass resolves its
    deletion list, and once per public operation as {!Journal.Op_end}.
    [lib/durable] installs the WAL's sink. *)

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
