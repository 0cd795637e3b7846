(* A rebuild-everything reference for the online engine.

   [Coordination.Online] keeps an atom index, stored edges, a partition
   and dirty-component tracking so that it never looks at the whole
   pool.  This oracle keeps none of them: it holds the pending pool as a
   plain list of (pool id, query) pairs, ids handed out in submission
   order as the engine does, and, on every evaluation, rebuilds the
   coordination graph of the whole pool with [Coordination_graph.build],
   re-derives its weakly connected components with an explicit work
   stack, and runs [Scc_algo.solve] on each component in position order.
   It shares no code with the atom index or the stored edges — that
   independence is its whole purpose — so the differential harness
   (test/test_differential.ml) can hold every engine configuration to
   it.  Cost is O(pool²) per evaluation; only tests use it. *)

open Relational
open Entangled
module Online = Coordination.Online
module Scc_algo = Coordination.Scc_algo

type t = {
  db : Database.t;
  consume : bool;
  mutable rev_pool : (int * Query.t) list;  (* pending entries, newest first *)
  mutable next_id : int;
  mutable satisfied : int;
}

let create ?(consume = false) db =
  { db; consume; rev_pool = []; next_id = 0; satisfied = 0 }

let pending_entries t = List.rev t.rev_pool
let pending t = List.map snd (pending_entries t)
let next_id t = t.next_id
let total_coordinated t = t.satisfied

(* Every admission takes the next id, an arrival that is then rejected
   included. *)
let admit t q =
  t.rev_pool <- (t.next_id, q) :: t.rev_pool;
  t.next_id <- t.next_id + 1

(* Weakly connected components of the pool's coordination graph, as
   lists of positions into [pending] (each ascending, components ordered
   by first member).  The traversal uses an explicit stack, so a
   chain-shaped pool tens of thousands of queries long cannot exhaust
   the call stack.  Renaming the queries apart is unnecessary: edge
   existence only inspects relation symbols and constants. *)
let components t =
  let pool = Array.of_list (pending t) in
  let graph = (Coordination_graph.build pool).Coordination_graph.graph in
  let n = Array.length pool in
  let undirected = Graphs.Digraph.create n in
  Graphs.Digraph.iter_edges
    (fun u v ->
      Graphs.Digraph.add_edge undirected u v;
      Graphs.Digraph.add_edge undirected v u)
    graph;
  let seen = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let members = ref [] in
      let stack = Stack.create () in
      Stack.push v stack;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        if not seen.(u) then begin
          seen.(u) <- true;
          members := u :: !members;
          List.iter
            (fun w -> if not seen.(w) then Stack.push w stack)
            (Graphs.Digraph.successors undirected u)
        end
      done;
      comps := List.sort Int.compare !members :: !comps
    end
  done;
  List.rev !comps

(* Drop the given positions from the pool. *)
let remove t positions =
  t.rev_pool <-
    List.rev
      (List.filteri
         (fun i _ -> not (List.mem i positions))
         (pending_entries t))

(* Remove the entry with pool id [id], if it is pending. *)
let withdraw t id =
  List.mem_assoc id t.rev_pool
  && begin
       t.rev_pool <- List.remove_assoc id t.rev_pool;
       true
     end

(* Delete each distinct grounded body tuple of the fired members once. *)
let consume_inventory t (queries : Query.t array) (s : Solution.t) =
  let booked = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun (a : Cq.atom) ->
          let tuple =
            Array.map
              (function
                | Term.Const v -> v
                | Term.Var x -> Eval.Binding.find x s.Solution.assignment)
              a.args
          in
          if not (Hashtbl.mem booked (a.rel, tuple)) then begin
            Hashtbl.add booked (a.rel, tuple) ();
            match Database.relation_opt t.db a.rel with
            | Some r -> ignore (Relation.delete r tuple)
            | None -> ()
          end)
        queries.(m).Query.body.Cq.atoms)
    s.Solution.members

(* Solve one component (ascending positions); on a fire, retire the
   members and book their inventory. *)
let evaluate t positions =
  let pool = Array.of_list (pending t) in
  match Scc_algo.solve t.db (List.map (fun p -> pool.(p)) positions) with
  | Error (Scc_algo.Not_safe ws) -> `Unsafe ws
  | Ok { Scc_algo.solution = None; _ } -> `Quiet
  | Ok ({ Scc_algo.solution = Some s; _ } as outcome) ->
    let members = List.map (List.nth positions) s.Solution.members in
    remove t members;
    t.satisfied <- t.satisfied + List.length members;
    if t.consume then consume_inventory t outcome.Scc_algo.queries s;
    `Fired
      {
        Online.queries = List.map (fun p -> pool.(p)) members;
        assignment = s.Solution.assignment;
      }

(* Try every component in position order; after a fire the positions
   shift, so start over until a whole round fires nothing. *)
let flush t =
  let rec first_fire = function
    | [] -> None
    | c :: rest -> (
      match evaluate t c with
      | `Fired f -> Some f
      | `Quiet | `Unsafe _ -> first_fire rest)
  in
  let rec rounds acc =
    match first_fire (components t) with
    | None -> List.rev acc
    | Some f -> rounds (f :: acc)
  in
  rounds []

let submit t q =
  admit t q;
  let last = List.length t.rev_pool - 1 in
  match evaluate t (List.find (List.mem last) (components t)) with
  | `Fired f -> Online.Coordinated f
  | `Quiet -> Online.Pending
  | `Unsafe ws ->
    (* The arrival made its component unsafe: it is not admitted. *)
    remove t [ last ];
    Online.Rejected_unsafe ws
