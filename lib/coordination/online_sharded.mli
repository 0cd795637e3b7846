(** The online engine, sharded by component across OCaml 5 domains.

    A library engine: [entangle serve], [Server] and the WAL hold the
    sequential {!Online} engine only.  This one is exercised by its
    differential suite and the [online-sharded] bench ablation, where
    batched submits overlap emulated probe latency.  On served traffic
    it brings no gain: {!submit} runs one {!Online.touched} probe per
    shard and then evaluates on a single shard on the calling domain,
    so only the non-consume flush rounds of {!flush} and {!submit_all}
    run in parallel.

    Distinct weakly-connected components of the coordination graph
    never interact — the coordination-avoidance principle that made the
    batch executor embarrassingly parallel — so the live pool can be
    partitioned across per-shard incremental engines ({!Online}), each
    over its own {!Relational.Database.worker_view} of one shared
    store, and stay {e observationally identical} to one sequential
    engine.

    {2 Routing and migration}

    Arrivals are routed by the coordination graph itself.  Each shard
    answers {!Online.touched}: the live components the arrival has an
    edge with, found by the same atom-index probe admission runs.  The
    arrival goes to the shard holding the most touched entries (fewest
    entries move; ties to the lowest shard index), or to the least
    loaded shard when it touches nothing.  Every other shard's touched
    components are {!Online.detach}ed and {!Online.attach}ed there —
    with dirtiness preserved, so migration alone re-evaluates nothing.
    Components are closed under edges, so every component lives in
    exactly one shard, and a migration happens only when an arrival
    really bridges two shards.  The orchestrator keeps no index of its
    own: its only table maps live ids to shards.

    {2 Determinism}

    Every public operation is bracketed by {!Online.prepare_op} /
    {!Online.finish_op} on every shard, reproducing the sequential
    engine's dirty-tracking semantics exactly (external mutations dirty
    every pool; the operation's own consume deletions dirty nothing).
    Non-consume flushes run every shard's sequential flush to fixpoint
    concurrently and stable-merge the per-shard fire streams by
    {!Online.fired} key — each stream is non-decreasing in key, so the
    merge {e is} the sequential fire order.  Consume-mode flushes
    commit one component at a time in that same canonical order through
    the owning shard, because inventory deletions couple components
    through the shared store.  Fired sets, assignments, the pending
    pool, the satisfied count and all deterministic {!Stats} counters (folded with {!Stats.merge})
    therefore equal the sequential engine's at {e every} domain count;
    the differential suite in [test/test_online_sharded.ml] asserts
    this per operation.

    Caveats, shared with the batch executor: guard-armed runs split
    budgets per shard ({!Resilient.split}/[absorb]) rather than
    spending them in global component order, so {e which} components
    degrade under a tight budget can differ from the oracle (degraded
    components stay dirty and converge on a later flush); a worker
    crash surfaces as {!Executor.Worker_crashed} only after every
    sibling domain is joined. *)

open Relational
open Entangled

type t

val create : ?consume:bool -> ?domains:int -> Database.t -> t
(** Like {!Online.create}, over [domains] shards (default
    {!Executor.default_domains}).
    @raise Invalid_argument if [domains < 1]. *)

val migrations : t -> int
(** Cross-shard component migrations performed so far (diagnostics). *)

val table_sizes : t -> (string * int) list
(** ["entry_shard"] (the live-id routing table), then each of
    {!Online.table_sizes} summed over the shards — a debug and gauge
    accessor; every one is bounded by the live pool. *)

val submit : t -> Query.t -> Online.submission
val submit_all : t -> Query.t list -> Online.coordinated list
val flush : t -> Online.coordinated list
val withdraw : t -> int -> bool
val pending_entries : t -> (int * Query.t) list
val next_id : t -> int
val pending_count : t -> int
val components : t -> int list list
val total_coordinated : t -> int

val stats : t -> Stats.t
(** Per-shard cumulative statistics folded through {!Stats.merge} (the
    canonical — and only — fold).  All deterministic counters equal the
    sequential engine's; timing spans are per-shard sums. *)

val last_degradation : t -> Resilient.degradation option
(** As {!Online.last_degradation}.  Sequentially-committed paths
    (submit, withdraw, consume-mode flush) report exactly the oracle's
    degradation; after a parallel flush the reported value is one
    representative of the shards that degraded this operation. *)
