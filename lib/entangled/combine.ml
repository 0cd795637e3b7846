open Relational

type failure =
  | Unsatisfiable_post of int * int
  | Ambiguous_post of int * int * int
  | Clash of int * int

let pp_failure queries ppf f =
  let name i = queries.(i).Query.name in
  match f with
  | Unsatisfiable_post (q, pi) ->
    Format.fprintf ppf "postcondition %d of %s has no candidate head" pi
      (name q)
  | Ambiguous_post (q, pi, k) ->
    Format.fprintf ppf "postcondition %d of %s has %d candidate heads" pi
      (name q) k
  | Clash (q, pi) ->
    Format.fprintf ppf "unifying postcondition %d of %s clashed" pi (name q)

let head_atom (g : Coordination_graph.t) q hi = List.nth g.queries.(q).Query.head hi

let unify_posts (g : Coordination_graph.t) ~in_set ~members =
  let rec posts subst q pi = function
    | [] -> Ok subst
    | p :: rest -> (
      let targets =
        List.filter
          (fun (d, _) -> in_set d)
          (Coordination_graph.post_targets g ~src:q ~post_index:pi)
      in
      match targets with
      | [] -> Error (Unsatisfiable_post (q, pi))
      | _ :: _ :: _ -> Error (Ambiguous_post (q, pi, List.length targets))
      | [ (d, hi) ] -> (
        match Subst.unify_atoms subst p (head_atom g d hi) with
        | None -> Error (Clash (q, pi))
        | Some subst -> posts subst q (pi + 1) rest))
  in
  List.fold_left
    (fun acc q ->
      Result.bind acc (fun subst -> posts subst q 0 g.queries.(q).Query.post))
    (Ok Subst.empty) members

let unify_set g ~members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace in_set q ()) members;
  unify_posts g ~in_set:(Hashtbl.mem in_set) ~members

let combined_body (g : Coordination_graph.t) ~members subst =
  let bodies =
    List.concat_map (fun q -> g.queries.(q).Query.body.Cq.atoms) members
  in
  Subst.apply_cq subst (Cq.make bodies)
