open Relational
open Entangled

exception Worker_crashed of string

let default_domains () = max 1 (Domain.recommended_domain_count ())

let domain_count = function
  | Some d -> max 1 d
  | None -> default_domains ()

(* ------------------------------------------------------------------ *)
(* Work-stealing domain pool                                          *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* One deque per worker, pre-filled round-robin from the tasks sorted
     by descending weight (largest first), so loads start balanced and
     the heaviest tasks begin immediately.  The owner pops from the
     front, thieves from the back — victims lose their smallest pending
     tasks first.  A plain mutex per deque: shards are coarse (a whole
     component solve), so the lock is nowhere near the hot path. *)
  type deque = {
    tasks : int array;
    mutable lo : int;
    mutable hi : int;  (* exclusive *)
    lock : Mutex.t;
  }

  let pop d =
    Mutex.lock d.lock;
    let r =
      if d.lo < d.hi then begin
        let t = d.tasks.(d.lo) in
        d.lo <- d.lo + 1;
        Some t
      end
      else None
    in
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.lo < d.hi then begin
        d.hi <- d.hi - 1;
        Some d.tasks.(d.hi)
      end
      else None
    in
    Mutex.unlock d.lock;
    r

  let map ~domains ~weights f =
    let n = Array.length weights in
    if n = 0 then [||]
    else begin
      let k = max 1 (min domains n) in
      let order = Array.init n Fun.id in
      (* Descending weight, ties towards lower index: deterministic
         initial placement whatever the caller's weights. *)
      Array.sort
        (fun a b ->
          match compare weights.(b) weights.(a) with
          | 0 -> compare a b
          | c -> c)
        order;
      let per = Array.make k [] in
      Array.iteri (fun pos t -> per.(pos mod k) <- t :: per.(pos mod k)) order;
      let deques =
        Array.map
          (fun l ->
            let tasks = Array.of_list (List.rev l) in
            { tasks; lo = 0; hi = Array.length tasks; lock = Mutex.create () })
          per
      in
      (* Each slot is written by exactly one worker (the one that popped
         or stole the task) and read only after every domain is joined,
         so the array needs no lock of its own. *)
      let results = Array.make n None in
      let worker w () =
        (* A fresh domain starts with empty domain-local Obs state; give
           it a flight-recorder ring when the recorder is armed so the
           incident dump covers every domain's final moments.  (Worker 0
           runs on the orchestrating domain, whose ring already
           exists — arm_domain is idempotent.) *)
        Obs.Flight_recorder.arm_domain ();
        let run t = results.(t) <- Some (try Ok (f t) with e -> Error e) in
        let rec own () =
          match pop deques.(w) with
          | Some t ->
            run t;
            own ()
          | None -> ()
        in
        own ();
        (* No task is ever added after start, so repeated full scans of
           the other deques terminate: one scan with nothing stolen
           means every deque is empty. *)
        let rec scan () =
          let found = ref false in
          for i = 1 to k - 1 do
            match steal deques.((w + i) mod k) with
            | Some t ->
              found := true;
              run t;
              own ()
            | None -> ()
          done;
          if !found then scan ()
        in
        scan ()
      in
      (* Workers trap every exception into their result slot, so the
         joins below cannot be skipped — no domain is ever leaked. *)
      let handles = List.init (k - 1) (fun i -> Domain.spawn (worker (i + 1))) in
      worker 0 ();
      List.iter Domain.join handles;
      Array.map (function Some r -> r | None -> assert false) results
    end
end

(* ------------------------------------------------------------------ *)
(* Shared shard plumbing                                              *)
(* ------------------------------------------------------------------ *)

(* Group vertices into weakly-connected components of [g] restricted to
   [keep], each group ascending, the groups ordered by first vertex —
   the deterministic shard list. *)
let wcc_groups g ~count ~keep =
  let uf = Graphs.Union_find.create count in
  Graphs.Digraph.iter_edges (fun u v -> ignore (Graphs.Union_find.union uf u v)) g;
  let groups = Hashtbl.create 64 in
  for v = count - 1 downto 0 do
    if keep v then begin
      let r = Graphs.Union_find.find uf v in
      Hashtbl.replace groups r
        (v :: Option.value ~default:[] (Hashtbl.find_opt groups r))
    end
  done;
  Hashtbl.fold (fun _ vs acc -> vs :: acc) groups []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* Capture the Obs items a thunk emits on the calling (worker) domain
   into [buf] under [key], via an exclusive domain-local memory sink:
   when the worker runs on the orchestrator's own domain the live sinks
   are suspended, so items reach the outside world only through the
   sorted replay.  The drain runs in the [finally] so an abort mid-thunk
   still keeps the items emitted so far — exactly what the sequential
   trace would contain. *)
let with_capture ~tracing buf key f =
  if not tracing then f ()
  else begin
    let sink, drain = Obs.memory_sink () in
    Fun.protect
      ~finally:(fun () -> buf := (key, drain ()) :: !buf)
      (fun () -> Obs.exclusive sink f)
  end

(* Replay captured items in ascending key order — the sequential
   emission order — at the orchestrator's current span depth. *)
let replay_captured captured =
  let items = List.sort (fun (a, _) (b, _) -> Int.compare a b) captured in
  let offset = Obs.depth () in
  List.iter (fun (_, items) -> Obs.replay ~depth_offset:offset items) items

let split_guards guard n =
  match guard with
  | Some g when n > 0 -> Some (g, Resilient.split g n)
  | _ -> None

let child_guard children i =
  match children with Some (_, cs) -> Some cs.(i) | None -> None

let absorb_guards children =
  Option.iter (fun (g, cs) -> Resilient.absorb g cs) children

let raise_first_crash results =
  Array.iter
    (function
      | Error e ->
        Obs.Flight_recorder.incident "worker_crashed";
        raise (Worker_crashed (Printexc.to_string e))
      | Ok _ -> ())
    results

(* ------------------------------------------------------------------ *)
(* SCC algorithm, sharded                                             *)
(* ------------------------------------------------------------------ *)

type scc_report = {
  sr_cands : (int * Scc_algo.candidate) list;  (* (scc id, candidate) *)
  sr_stats : Stats.t;
  sr_counters : Counters.t;
  sr_trace : (int * Obs.item list) list;
  sr_abort : (Resilient.error * (int * int list) list) option;
      (* reason, unprobed (scc id, members) *)
}

let run_scc_shard ~tracing ~selection ~minimize (a : Scc_algo.analysis) view
    sccs =
  let stats = Stats.create () in
  let ctx = Scc_algo.make_ctx ~minimize ~stats view in
  let cands = ref [] in
  let trace = ref [] in
  let abort = ref None in
  let rec go = function
    | [] -> ()
    | c :: rest -> (
      match
        with_capture ~tracing trace c (fun () ->
            Scc_algo.probe_component ctx a c)
      with
      | exception Resilient.Abort reason ->
        (* The component that aborted counts as unprobed, like the
           sequential solver's cut-off. *)
        let unprobed =
          List.map (fun c -> (c, a.an_scc.members.(c))) (c :: rest)
        in
        abort := Some (reason, unprobed)
      | None -> go rest
      | Some cand ->
        cands := (c, cand) :: !cands;
        (* First-found stops this shard; the merge keeps the earliest
           component over all shards, which is the sequential answer. *)
        (match selection with
        | Scc_algo.First_found -> ()
        | Scc_algo.Largest | Scc_algo.Preferred _ -> go rest))
  in
  go sccs;
  {
    sr_cands = List.rev !cands;
    sr_stats = stats;
    sr_counters = Database.snapshot_counters view;
    sr_trace = !trace;
    sr_abort = !abort;
  }

let solve_scc ?(selection = Scc_algo.Largest) ?(preprocess = true)
    ?(minimize = false) ?domains db input =
  let k = domain_count domains in
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "scc.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let counters0 = Database.snapshot_counters db in
  let queries = Query.rename_set input in
  let finish result =
    stats.Stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  let t_graph = Stats.now_ns () in
  let graph =
    Obs.with_span "scc.graph" (fun () -> Coordination_graph.build queries)
  in
  match Scc_algo.analyze ~preprocess graph with
  | Error e ->
    stats.Stats.graph_ns <- Int64.sub (Stats.now_ns ()) t_graph;
    finish (Error e)
  | Ok a ->
    stats.Stats.graph_ns <- Int64.sub (Stats.now_ns ()) t_graph;
    let scc = a.Scc_algo.an_scc in
    Database.warm_indexes db;
    let shards =
      wcc_groups a.Scc_algo.an_cond ~count:scc.Graphs.Scc.count
        ~keep:(fun _ -> true)
    in
    let shard_arr = Array.of_list shards in
    let weights =
      Array.map
        (fun cs ->
          List.fold_left
            (fun acc c -> acc + List.length scc.Graphs.Scc.members.(c))
            0 cs)
        shard_arr
    in
    let children = split_guards (Database.guard db) (Array.length shard_arr) in
    let tracing = Obs.tracing () in
    let reports =
      Pool.map ~domains:k ~weights (fun i ->
          let view = Database.worker_view ?guard:(child_guard children i) db in
          run_scc_shard ~tracing ~selection ~minimize a view shard_arr.(i))
    in
    absorb_guards children;
    raise_first_crash reports;
    let reports =
      Array.map (function Ok r -> r | Error _ -> assert false) reports
    in
    (* Deterministic merge, independent of domain count and steal order:
       trace items and candidates in ascending SCC id (the sequential
       discovery order), stats by commutative addition. *)
    if tracing then
      replay_captured
        (Array.to_list reports |> List.concat_map (fun r -> r.sr_trace));
    Array.iter
      (fun r ->
        Stats.merge ~into:stats r.sr_stats;
        Stats.add_counters stats r.sr_counters)
      reports;
    (* merge added the shards' zero total_ns/graph_ns; re-assert ours *)
    let candidates =
      Array.to_list reports
      |> List.concat_map (fun r -> r.sr_cands)
      |> List.sort (fun (c1, _) (c2, _) -> Int.compare c1 c2)
      |> List.map snd
    in
    let aborts =
      Array.to_list reports |> List.filter_map (fun r -> r.sr_abort)
    in
    let degraded =
      match aborts with
      | [] -> None
      | _ :: _ ->
        let unprobed =
          List.concat_map snd aborts
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let reason =
          (* The abort of the shard owning the earliest unprobed
             component — a deterministic choice. *)
          List.sort
            (fun (_, u1) (_, u2) ->
              Int.compare (fst (List.hd u1)) (fst (List.hd u2)))
            aborts
          |> List.hd |> fst
        in
        Some
          (Resilient.degraded
             ~unprobed:(List.map snd unprobed)
             ~note:
               (Printf.sprintf "%d of %d components unprobed"
                  (List.length unprobed) scc.Graphs.Scc.count)
             reason)
    in
    let solution =
      Option.map
        (fun (c : Scc_algo.candidate) ->
          Solution.make ~members:c.covered ~assignment:c.assignment)
        (Scc_algo.select selection queries candidates)
    in
    finish
      (Ok
         {
           Scc_algo.queries;
           graph = a.Scc_algo.an_graph;
           candidates;
           solution;
           stats;
           degraded;
         })

(* ------------------------------------------------------------------ *)
(* Gupta baseline, sharded                                            *)
(* ------------------------------------------------------------------ *)

type gupta_report = {
  gr_witness :
    (Eval.valuation option, Combine.failure) result option;
      (* None: the shard's ground was aborted *)
  gr_abort : Resilient.error option;
  gr_stats : Stats.t;
  gr_counters : Counters.t;
  gr_trace : (int * Obs.item list) list;
}

let failure_key : Combine.failure -> int * int = function
  | Combine.Unsatisfiable_post (q, p) -> (q, p)
  | Combine.Ambiguous_post (q, p, _) -> (q, p)
  | Combine.Clash (q, p) -> (q, p)

let run_gupta_shard ~tracing graph queries view shard_index members =
  let stats = Stats.create () in
  let trace = ref [] in
  let report witness abort =
    {
      gr_witness = witness;
      gr_abort = abort;
      gr_stats = stats;
      gr_counters = Database.snapshot_counters view;
      gr_trace = !trace;
    }
  in
  with_capture ~tracing trace shard_index @@ fun () ->
  let unified, unify_ns =
    Obs.timed_span "gupta.unify" (fun () -> Combine.unify_set graph ~members)
  in
  stats.Stats.unify_ns <- unify_ns;
  match unified with
  | Error f -> report (Some (Error f)) None
  | Ok subst -> (
    let witness, ground_ns =
      Obs.timed_span "gupta.ground" (fun () ->
          match Ground.solve view queries ~members subst with
          | w -> Ok w
          | exception Resilient.Abort reason -> Error reason)
    in
    stats.Stats.ground_ns <- ground_ns;
    match witness with
    | Error reason -> report None (Some reason)
    | Ok w -> report (Some (Ok w)) None)

let solve_gupta ?domains db input =
  let k = domain_count domains in
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "gupta.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let queries = Query.rename_set input in
  let counters0 = Database.snapshot_counters db in
  let finish result =
    stats.Stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    result
  in
  if Array.length queries = 0 then
    finish
      (Ok { Gupta.queries; solution = None; stats; degraded = None })
  else begin
    let graph, graph_ns =
      Obs.timed_span "gupta.graph" (fun () -> Coordination_graph.build queries)
    in
    stats.Stats.graph_ns <- graph_ns;
    match Safety.classify graph with
    | `Unsafe -> finish (Error (Gupta.Not_safe (Safety.unsafe_posts graph)))
    | `Safe -> finish (Error Gupta.Not_unique)
    | `Safe_unique ->
      (* Renamed-apart queries share no variables, so the combined query
         of the whole set is the disjoint union of the per-WCC combined
         queries: the set coordinates iff every WCC's combined query is
         satisfiable, and the union of per-WCC witnesses is a witness
         for the whole set. *)
      Database.warm_indexes db;
      let n = Array.length queries in
      let shards =
        wcc_groups graph.Coordination_graph.graph ~count:n ~keep:(fun _ ->
            true)
      in
      let shard_arr = Array.of_list shards in
      let weights = Array.map List.length shard_arr in
      let children =
        split_guards (Database.guard db) (Array.length shard_arr)
      in
      let tracing = Obs.tracing () in
      let reports =
        Pool.map ~domains:k ~weights (fun i ->
            let view =
              Database.worker_view ?guard:(child_guard children i) db
            in
            run_gupta_shard ~tracing graph queries view i shard_arr.(i))
      in
      absorb_guards children;
      raise_first_crash reports;
      let reports =
        Array.map (function Ok r -> r | Error _ -> assert false) reports
      in
      if tracing then
        replay_captured
          (Array.to_list reports |> List.concat_map (fun r -> r.gr_trace));
      Array.iter
        (fun r ->
          Stats.merge ~into:stats r.gr_stats;
          Stats.add_counters stats r.gr_counters)
        reports;
      stats.Stats.candidates <- Array.length shard_arr;
      let failures =
        Array.to_list reports
        |> List.filter_map (fun r ->
               match r.gr_witness with Some (Error f) -> Some f | _ -> None)
      in
      match failures with
      | _ :: _ ->
        (* The sequential combined unification stops at the failure with
           the smallest (member, post) position; per-shard unification
           finds all of them, so the minimum is the sequential one. *)
        let f =
          List.sort
            (fun a b -> compare (failure_key a) (failure_key b))
            failures
          |> List.hd
        in
        finish (Error (Gupta.Unification_failed f))
      | [] -> (
        let aborted =
          Array.to_list reports
          |> List.mapi (fun i r -> (i, r.gr_abort))
          |> List.filter_map (fun (i, a) ->
                 Option.map (fun reason -> (i, reason)) a)
        in
        match aborted with
        | (_, reason) :: _ ->
          finish
            (Ok
               {
                 Gupta.queries;
                 solution = None;
                 stats;
                 degraded =
                   Some
                     (Resilient.degraded
                        ~unprobed:
                          (List.map (fun (i, _) -> shard_arr.(i)) aborted)
                        ~note:"combined query unprobed" reason);
               })
        | [] ->
          let witnesses =
            Array.to_list reports
            |> List.map (fun r ->
                   match r.gr_witness with
                   | Some (Ok w) -> w
                   | Some (Error _) | None -> assert false)
          in
          if List.exists Option.is_none witnesses then
            finish
              (Ok { Gupta.queries; solution = None; stats; degraded = None })
          else begin
            let assignment =
              List.fold_left
                (fun acc w ->
                  (* Shards are variable-disjoint; union never clashes. *)
                  Eval.Binding.union
                    (fun _ v _ -> Some v)
                    acc
                    (Option.get w))
                Eval.Binding.empty witnesses
            in
            let members = List.init n Fun.id in
            finish
              (Ok
                 {
                   Gupta.queries;
                   solution = Some (Solution.make ~members ~assignment);
                   stats;
                   degraded = None;
                 })
          end)
  end

(* ------------------------------------------------------------------ *)
(* Consistent coordination: per-value tasks                           *)
(* ------------------------------------------------------------------ *)

let solve_consistent ?domains db config input =
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "parallel.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Stats.now_ns () in
  let counters0 = Database.snapshot_counters db in
  let t_graph = Stats.now_ns () in
  match
    Obs.with_span "parallel.prepare" (fun () ->
        Consistent.prepare db config input)
  with
  | exception Resilient.Abort reason ->
    stats.Stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
    Stats.add_counters stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    Ok (Consistent.degraded_outcome config input stats reason)
  | Error e -> Error e
  | Ok p -> (
    stats.Stats.graph_ns <- Int64.sub (Stats.now_ns ()) t_graph;
    let vs = Array.of_list (Consistent.values p) in
    let k = domain_count domains in
    let t_loop = Stats.now_ns () in
    (* One task per value v in V(Q): [survivors] is pure, so workers run
       uninstrumented and need no database view.  The results array is
       in value order whatever the steal schedule. *)
    let results =
      Obs.with_span
        ~args:(fun () ->
          [ ("domains", Obs.Int k); ("values", Obs.Int (Array.length vs)) ])
        "parallel.values_loop"
        (fun () ->
          Pool.map ~domains:k
            ~weights:(Array.make (Array.length vs) 1)
            (fun i ->
              let v = vs.(i) in
              let members, rounds = Consistent.survivors p v in
              (v, members, rounds)))
    in
    stats.Stats.unify_ns <- Int64.sub (Stats.now_ns ()) t_loop;
    let first_error =
      Array.find_opt (function Error _ -> true | Ok _ -> false) results
    in
    match first_error with
    | Some (Error (Resilient.Abort reason)) ->
      stats.Stats.total_ns <- Int64.sub (Stats.now_ns ()) t_start;
      Stats.add_counters stats
        (Counters.diff ~before:counters0
           ~after:(Database.snapshot_counters db));
      Ok (Consistent.degraded_outcome config input stats reason)
    | Some (Error e) ->
      Error (Consistent.Worker_crashed (Printexc.to_string e))
    | Some (Ok _) | None ->
      let flat =
        Array.to_list results
        |> List.map (function Ok r -> r | Error _ -> assert false)
      in
      let candidates =
        List.map (fun (v, members, _) -> (v, List.length members)) flat
      in
      List.iter
        (fun (_, _, rounds) ->
          stats.Stats.cleaning_rounds <- stats.Stats.cleaning_rounds + rounds)
        flat;
      stats.Stats.candidates <- List.length flat;
      let best =
        List.fold_left
          (fun best (v, members, _) ->
            let size = List.length members in
            match best with
            | Some (_, _, best_size) when best_size >= size -> best
            | _ when size > 0 -> Some (v, members, size)
            | _ -> best)
          None flat
        |> Option.map (fun (v, members, _) -> (v, members))
      in
      let outcome =
        Obs.with_span "parallel.ground" (fun () ->
            Consistent.finalize db p ~candidates ~best stats)
      in
      outcome.Consistent.stats.Stats.total_ns <-
        Int64.sub (Stats.now_ns ()) t_start;
      Stats.add_counters outcome.Consistent.stats
        (Counters.diff ~before:counters0
           ~after:(Database.snapshot_counters db));
      Ok outcome)
