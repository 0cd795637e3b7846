(** Component-sharded multicore batch executor.

    The paper observes (§6.2) that its algorithms "naturally break into
    parallel processes": the coordination graph decomposes every batch
    into weakly-connected components that share no queries, no
    condensation edges and (after {!Query.rename_set}) no variables.
    This module partitions a batch into those WCC shards and solves them
    concurrently on a pool of OCaml 5 domains with read-only access to
    the shared store, then merges per-shard results {e deterministically}:

    - shards are formed by union-find over the coordination structure
      and ordered by their first component/query id;
    - the pool schedules largest-shard-first via per-worker
      work-stealing deques (owner pops the front, thieves the back);
    - each shard solves against a {!Relational.Database.worker_view} —
      private counters, shared store, shared compile-once plan cache
      behind a lock — after {!Relational.Database.warm_indexes} makes
      all index reads pure;
    - candidates and captured {!Obs} items are merged in ascending
      component id (the sequential discovery order), per-shard
      {!Stats.t} and view counters are summed, so output, stats and
      trace events are byte-identical to the sequential run (timestamps
      aside) regardless of domain count or steal order;
    - an armed {!Resilient.t} guard is {!Resilient.split} across shards
      and folded back with {!Resilient.absorb}: a shard abort degrades
      {e only that shard}, everything else completes.

    Caveats, all deliberate: [First_found] selection still returns the
    sequential solution (the earliest successful component over all
    shards) but sibling shards may probe past their own first success,
    so probe counts can exceed the sequential run's; guard-armed runs
    spend their budget per shard rather than in global component order
    (see {!Resilient.split}); the shared plan cache means {e which}
    probe takes each plan-shape's compile miss follows shard execution
    order — the [plan_hit] span argument can flip between runs even
    though total hits and misses are deterministic; and worker domains
    keep metrics off — the {!Obs} registries are process-wide — so
    [--metrics] aggregates only orchestrator-side work under
    [--parallel]. *)

open Relational
open Entangled

exception Worker_crashed of string
(** A worker domain raised something other than {!Resilient.Abort}
    (an engine bug, not a fault).  Every sibling domain was still
    joined before this propagates. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — what
    [?domains:None] resolves to. *)

(** The underlying domain pool the sharded solvers below run on,
    exposed for tests. *)
module Pool : sig
  val map :
    domains:int -> weights:int array -> (int -> 'a) -> ('a, exn) result array
  (** [map ~domains ~weights f] runs [f i] for every task index
      [i < Array.length weights] on [min domains (length weights)]
      domains (the caller's domain included) and returns the results
      {e in task order}, each [Error] carrying the exception that task
      raised.  Tasks are dealt round-robin in descending-weight order
      onto per-worker deques; idle workers steal from the back of
      sibling deques.  All spawned domains are joined before returning,
      whatever the tasks do. *)
end

val solve_scc :
  ?selection:Scc_algo.selection ->
  ?preprocess:bool ->
  ?minimize:bool ->
  ?domains:int ->
  Database.t ->
  Query.t list ->
  (Scc_algo.outcome, Scc_algo.error) result
(** Parallel {!Scc_algo.solve}: analysis (graph, preprocessing, safety,
    condensation) runs once on the calling domain, then each WCC of the
    condensation becomes a shard whose components are probed in
    ascending SCC id by {!Scc_algo.probe_component}.  Same outcome,
    stats counters and trace events as the sequential solver for
    [Largest]/[Preferred] selections on unguarded runs; see the module
    header for the [First_found] and guard caveats. *)

val solve_gupta :
  ?domains:int ->
  Database.t ->
  Query.t list ->
  (Gupta.outcome, Gupta.error) result
(** Parallel {!Gupta.solve}: the combined query of a safe-and-unique
    set is the disjoint union of its per-WCC combined queries (renamed
    queries share no variables), so each WCC unifies and grounds
    independently and the witnesses union into the sequential
    assignment.  Stats differ in shape from the sequential baseline —
    one probe {e per shard} rather than one for the whole set, with
    [candidates] reporting the shard count — but are identical across
    domain counts. *)

val solve_consistent :
  ?domains:int ->
  Database.t ->
  Consistent_query.config ->
  Consistent_query.t list ->
  (Consistent.outcome, Consistent.error) result
(** Parallel consistent coordination ({!Consistent} staged interface):
    [prepare] and [finalize] run on the calling domain; the pure
    per-value survivor computation fans out one task per v in V(Q).
    Equivalent to
    [Consistent.solve ~selection:`Largest]. *)
