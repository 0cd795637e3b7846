(* A from-scratch reference for the SCC algorithm's candidate loop.

   [Coordination.Scc_algo] prunes with a worklist and seeds a
   component's candidate from its successors' witnesses whenever that
   provably gives the full search's verdict.  This oracle does neither:
   it prunes by rescanning every query until a pass kills none, and for
   every component it unifies the whole candidate set R(q)
   ([Combine.unify_set]) and grounds every member's body
   ([Ground.solve]) — one probe per candidate, O(|R(q)|) work each.
   The differentials hold the engine's per-component verdicts, covered
   sets and probe counts to it.  Only tests use it. *)

open Relational
open Entangled

type verdict =
  | Skipped
  | Unify_failed of Combine.failure
  | Probed of { members : int list; witness : Eval.valuation option }

(* Preprocessing as it stood before the worklist: rescan every live
   query until a pass kills none (a k-chain of deaths takes k passes). *)
let prune (g : Coordination_graph.t) ~alive =
  let has_live_target src pi =
    List.exists
      (fun (e : Coordination_graph.edge) ->
        e.src = src && e.post_index = pi && alive.(e.dst))
      g.extended
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i q ->
        List.iteri
          (fun pi (_ : Cq.atom) ->
            if alive.(i) && not (has_live_target i pi) then begin
              alive.(i) <- false;
              changed := true
            end)
          q.Query.post)
      g.queries
  done

(* [(component members, verdict)] in ascending SCC id (reverse
   topological) order, or [None] when a live postcondition has two live
   candidate heads.  [queries] must be renamed apart. *)
let run ?(minimize = false) db (queries : Query.t array) =
  let g = Coordination_graph.build queries in
  let alive = Array.make (Array.length queries) true in
  prune g ~alive;
  let live (e : Coordination_graph.edge) = alive.(e.src) && alive.(e.dst) in
  let ambiguous (e : Coordination_graph.edge) =
    List.exists
      (fun (f : Coordination_graph.edge) ->
        live f && f.src = e.src && f.post_index = e.post_index && f <> e)
      g.extended
  in
  if List.exists (fun e -> live e && ambiguous e) g.extended then None
  else begin
    let scc = Graphs.Scc.compute_masked g.graph ~alive:(fun v -> alive.(v)) in
    let cond = Graphs.Scc.condensation g.graph scc in
    let covered = Array.make scc.count None in
    let verdict c =
      let succs = Graphs.Digraph.successors cond c in
      if List.exists (fun s -> covered.(s) = None) succs then Skipped
      else
        let members =
          List.sort_uniq Int.compare
            (scc.members.(c)
            @ List.concat_map (fun s -> Option.get covered.(s)) succs)
        in
        match Combine.unify_set g ~members with
        | Error f -> Unify_failed f
        | Ok subst ->
          let witness = Ground.solve ~minimize db queries ~members subst in
          if witness <> None then covered.(c) <- Some members;
          Probed { members; witness }
    in
    let verdicts = ref [] in
    for c = 0 to scc.count - 1 do
      verdicts := (scc.members.(c), verdict c) :: !verdicts
    done;
    Some (List.rev !verdicts)
  end
