(* Seeded SCC candidates against the from-scratch oracle
   ([Scc_oracle]).  A component whose successors are all covered grounds
   only its own bodies, seeded from their witnesses, whenever its
   constraints only read the successors' values.  Whatever path a
   candidate takes, the per-component verdicts, the covered sets, the
   probe and candidate counts must equal the full search's, every
   candidate must pass Definition 1, and on small pools the answer must
   agree with [Brute].  Assignments may differ from the full search's
   first witness: only verdicts and member sets are compared.  Seeds
   follow CHAOS_SEED, so CI runs this suite over its seed matrix. *)

open Relational
open Entangled
open Helpers
module Scc_algo = Coordination.Scc_algo
module Explain = Coordination.Explain

(* A verdict without its witness, which may legitimately differ. *)
let shape queries (component, v) =
  let ids l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "{%s} %s" (ids component)
    (match v with
    | Scc_oracle.Skipped -> "skipped"
    | Unify_failed f -> Format.asprintf "%a" (Combine.pp_failure queries) f
    | Probed { members; witness } ->
      Printf.sprintf "probed {%s}: %b" (ids members) (Option.is_some witness))

let engine_verdicts (r : Explain.report) =
  List.filter_map
    (function
      | Scc_algo.Pruned _ -> None
      | Skipped { component } -> Some (component, Scc_oracle.Skipped)
      | Unify_failed { component; failure } ->
        Some (component, Scc_oracle.Unify_failed failure)
      | Probed { component; members; witness; _ } ->
        Some (component, Scc_oracle.Probed { members; witness }))
    r.events

(* Oracle-side member groundings: every probed candidate grounds all
   of R(q). *)
let full_groundings verdicts =
  List.fold_left
    (fun acc (_, v) ->
      match v with
      | Scc_oracle.Probed { members; _ } -> acc + List.length members
      | Skipped | Unify_failed _ -> acc)
    0 verdicts

(* Checks one pool on both sides and returns (engine, oracle) member
   groundings. *)
let check_pool ?(minimize = false) label db input =
  let queries = Query.rename_set input in
  let before = Database.snapshot_counters db in
  let oracle = Scc_oracle.run ~minimize db queries in
  let oracle_probes =
    (Counters.diff ~before ~after:(Database.snapshot_counters db)).probes
  in
  match (oracle, Explain.trace ~minimize db input) with
  | None, Error _ -> (0, 0)
  | None, Ok _ | Some _, Error _ ->
    Alcotest.failf "%s: safety verdicts differ" label
  | Some expected, Ok report ->
    Alcotest.(check (list string)) (label ^ ": verdicts")
      (List.map (shape queries) expected)
      (List.map (shape queries) (engine_verdicts report));
    let outcome = report.outcome in
    (* The untraced solve takes the same paths without building the
       combined bodies [Probed] carries. *)
    let untraced =
      match Scc_algo.solve ~minimize db input with
      | Ok o -> o
      | Error _ -> Alcotest.failf "%s: untraced solve unsafe" label
    in
    List.iter
      (fun (o : Scc_algo.outcome) ->
        Alcotest.(check int) (label ^ ": probes") oracle_probes
          o.stats.db_probes;
        Alcotest.(check int)
          (label ^ ": candidates")
          (List.length
             (List.filter
                (function _, Scc_oracle.Probed _ -> true | _ -> false)
                expected))
          o.stats.candidates;
        List.iter
          (fun (c : Scc_algo.candidate) ->
            check_validates db queries
              (Solution.make ~members:c.covered ~assignment:c.assignment))
          o.candidates)
      [ outcome; untraced ];
    Alcotest.(check (list (list int)))
      (label ^ ": untraced covered sets")
      (List.map (fun (c : Scc_algo.candidate) -> c.covered) outcome.candidates)
      (List.map
         (fun (c : Scc_algo.candidate) -> c.covered)
         untraced.candidates);
    if Array.length queries <= 8 then begin
      let subsets = Coordination.Brute.all_coordinating_subsets db queries in
      match outcome.solution with
      | None ->
        Alcotest.(check bool)
          (label ^ ": brute finds none") true (subsets = [])
      | Some s ->
        Alcotest.(check bool)
          (label ^ ": brute accepts the solution")
          true (List.mem s.members subsets)
    end;
    (outcome.stats.grounded_members, full_groundings expected)

let program text =
  let db = Database.create () in
  (db, Parser.load_program db (Parser.parse_program text))

(* Random pools over P(v, t).  Query i offers R(U<i>, x) :- P(x, T<t>)
   and asks R(U<j>, _) of each successor j in a scale-free DAG (diamonds
   are common), plus now and then a later query (multi-query SCCs).  The
   value asked for is a fresh variable (independent: seeding applies),
   the query's own body variable (coupled), a constant (pinning the
   successor's variable) or a variable shared by several posts (equating
   two successors' variables).  With [dangling], some posts name a user no
   query offers, so preprocessing prunes chains of queries. *)
let random_pool ?(dangling = false) rng ~n =
  let db = Database.create () in
  ignore (Database.create_table' db "P" [ "v"; "t" ]);
  for v = 0 to 4 do
    for t = 0 to 2 do
      if Prng.int rng 3 > 0 then
        Database.insert db "P" [ vi v; vs (Printf.sprintf "T%d" t) ]
    done
  done;
  let dag = Workload.Scale_free.generate rng ~nodes:n ~edges_per_node:2 in
  let user i = cs (Printf.sprintf "U%d" i) in
  let query i =
    let later =
      if i + 1 < n && Prng.int rng 5 = 0 then
        [ i + 1 + Prng.int rng (n - i - 1) ]
      else []
    in
    let nobody =
      if dangling && Prng.int rng 6 = 0 then [ n + Prng.int rng 3 ] else []
    in
    let asks =
      List.sort_uniq Int.compare
        (Graphs.Digraph.successors dag i @ later @ nobody)
    in
    let post =
      List.map
        (fun j ->
          let value =
            match Prng.int rng 5 with
            | 0 -> var "x"
            | 1 -> ci (Prng.int rng 5)
            | 2 -> var "y"
            | _ -> var (Printf.sprintf "y%d" j)
          in
          atom "R" [ user j; value ])
        asks
    in
    Query.make ~name:(Printf.sprintf "q%d" i) ~post
      ~head:[ atom "R" [ user i; var "x" ] ]
      [ atom "P" [ var "x"; cs (Printf.sprintf "T%d" (Prng.int rng 3)) ] ]
  in
  let queries = ref [] in
  for i = 0 to n - 1 do
    queries := query i :: !queries
  done;
  (db, List.rev !queries)

let seeds = List.init 3 (fun k -> chaos_seed + k)

(* A Listgen chain is all independent: one own body per candidate. *)
let test_chains () =
  List.iter
    (fun n ->
      let db, input =
        Workload.Listgen.make ~rows:200 ~topics:10 ~seed:chaos_seed n
      in
      let engine, oracle = check_pool (Printf.sprintf "chain %d" n) db input in
      Alcotest.(check (pair int int))
        (Printf.sprintf "chain %d: groundings" n)
        (n, n * (n + 1) / 2) (engine, oracle))
    [ 1; 2; 7; 32 ]

(* Figure 1 is coupled: qJ's postconditions bind its own body variable,
   so seeding must not engage and the probe count stays 2. *)
let test_figure1 () =
  let db = Database.create () in
  let input = figure1_queries db in
  let engine, oracle = check_pool "figure 1" db input in
  Alcotest.(check (pair int int))
    "figure 1: groundings" (5, 5) (engine, oracle);
  let o = Result.get_ok (Scc_algo.solve db input) in
  Alcotest.(check int) "figure 1: probes" 2 o.stats.db_probes

(* The diamond c -> {a, b} -> d.  a is coupled, so its full search
   witnesses d with x = 2; b is seeded from d's own witness, x = 1.  The
   two witnesses disagree on d's variable, so c takes the full search
   (4 members), which finds x = 2 for everyone. *)
let test_diamond () =
  let db, input =
    program
      {|
      table P(v). table Q(v).
      fact P(1). fact P(2). fact Q(2).
      query d: { } R(D, x) :- P(x).
      query a: { R(D, z) } R(A, z) :- P(z), Q(z).
      query b: { R(D, w) } R(B, w) :- P(u).
      query c: { R(A, p), R(B, r) } R(C, p) :- P(s).
      |}
  in
  let engine, oracle = check_pool "diamond" db input in
  Alcotest.(check (pair int int)) "diamond: groundings" (8, 9) (engine, oracle);
  let o = Result.get_ok (Scc_algo.solve db input) in
  Alcotest.(check (option int))
    "diamond: all four coordinate" (Some 4)
    (Option.map Solution.size o.solution)

(* A postcondition constant pins the successor's variable: {R(A, 5)}
   against the head R(A, u).  s's own witness is u = 1, so seeding would
   answer wrongly; the full search finds u = 5, or nothing without it. *)
let test_pinned () =
  List.iter
    (fun (facts, coordinates) ->
      let db, input =
        program
          (Printf.sprintf
             {|
             table P(v). %s
             query s: { } R(A, u) :- P(u).
             query c: { R(A, 5) } S(B, v) :- P(v).
             |}
             facts)
      in
      let engine, oracle = check_pool facts db input in
      Alcotest.(check (pair int int))
        (facts ^ ": groundings") (3, 3) (engine, oracle);
      let o = Result.get_ok (Scc_algo.solve db input) in
      Alcotest.(check (option int))
        (facts ^ ": largest set") (Some coordinates)
        (Option.map Solution.size o.solution))
    [ ("fact P(1). fact P(5).", 2); ("fact P(1). fact P(2).", 1) ]

(* Market-shaped pools are two-query cycles with no successors: seeding
   never engages, so every candidate grounds its whole set. *)
let test_pairs () =
  List.iter
    (fun seed ->
      let db, input =
        Workload.Pairgen.make ~rows:200 ~topics:10 ~p_unsat:0.3 ~seed 12
      in
      let engine, oracle =
        check_pool (Printf.sprintf "pairs %d" seed) db input
      in
      Alcotest.(check int) "pairs: zero seeded candidates" oracle engine)
    seeds

let test_random () =
  let seeded = ref 0 in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      for k = 1 to 120 do
        let n =
          if k mod 4 = 0 then 10 + Prng.int rng 40 else 2 + Prng.int rng 7
        in
        let db, input = random_pool ~dangling:(k mod 3 = 0) rng ~n in
        let label = Printf.sprintf "seed %d pool %d (n=%d)" seed k n in
        let engine, oracle =
          check_pool ~minimize:(k mod 5 = 0) label db input
        in
        if engine < oracle then incr seeded
      done)
    seeds;
  Alcotest.(check bool) "some pools took the seeded path" true (!seeded > 0)

(* One 32-query chain fired through the online engine grounds 32 member
   bodies: one per candidate, not one per suffix member (528). *)
let test_online_chain () =
  let db, chain = Workload.Listgen.make ~rows:200 ~topics:10 ~seed:1 32 in
  let engine = Coordination.Online.create db in
  List.iter (fun q -> ignore (Coordination.Online.submit engine q)) chain;
  let s = Coordination.Online.stats engine in
  Alcotest.(check int)
    "fired" 32
    (Coordination.Online.total_coordinated engine);
  Alcotest.(check (list int))
    "candidates, probes, grounded members" [ 32; 32; 32 ]
    [ s.candidates; s.db_probes; s.grounded_members ]

(* The worklist prune reaches the rescanning loop's greatest fixpoint,
   and [post_targets] reads the same edges as a filter over [extended]. *)
let test_prune () =
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      for _ = 1 to 300 do
        let _, input =
          random_pool ~dangling:true rng ~n:(1 + Prng.int rng 30)
        in
        let queries = Query.rename_set input in
        let g = Coordination_graph.build queries in
        let n = Array.length queries in
        let start = Array.init n (fun _ -> Prng.int rng 8 > 0) in
        let fast = Array.copy start and slow = Array.copy start in
        Coordination_graph.prune_unsatisfiable g ~alive:fast;
        Scc_oracle.prune g ~alive:slow;
        Alcotest.(check (array bool)) "prune masks" slow fast;
        Array.iteri
          (fun src (q : Query.t) ->
            List.iteri
              (fun post_index _ ->
                Alcotest.(check (list (pair int int)))
                  "post targets"
                  (List.filter_map
                     (fun (e : Coordination_graph.edge) ->
                       if e.src = src && e.post_index = post_index then
                         Some (e.dst, e.head_index)
                       else None)
                     g.extended)
                  (Coordination_graph.post_targets g ~src ~post_index))
              q.post)
          queries
      done)
    seeds

let suite =
  [
    Alcotest.test_case "listgen chains: one grounding per candidate" `Quick
      test_chains;
    Alcotest.test_case "figure 1 is coupled: no seeding" `Quick test_figure1;
    Alcotest.test_case "diamond with disagreeing witnesses" `Quick test_diamond;
    Alcotest.test_case "post constant pins a successor variable" `Quick
      test_pinned;
    Alcotest.test_case "pairs never seed" `Quick test_pairs;
    Alcotest.test_case "random pools = full-search oracle" `Quick test_random;
    Alcotest.test_case "online 32-chain grounds 32 members" `Quick
      test_online_chain;
    Alcotest.test_case "worklist prune = rescanning prune" `Quick test_prune;
  ]
