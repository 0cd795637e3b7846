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

(* The candidate heads of one postcondition inside the set: how many,
   and the first. *)
let rec count_in in_set n = function
  | [] -> n
  | (d, _) :: rest -> count_in in_set (if in_set d then n + 1 else n) rest

let rec first_in in_set = function
  | [] -> raise Not_found
  | ((d, _) as target) :: rest ->
    if in_set d then target else first_in in_set rest

let rec unify_member (g : Coordination_graph.t) in_set q pi subst = function
  | [] -> Ok subst
  | p :: rest -> (
    let targets = Coordination_graph.post_targets g ~src:q ~post_index:pi in
    match count_in in_set 0 targets with
    | 0 -> Error (Unsatisfiable_post (q, pi))
    | 1 -> (
      let d, hi = first_in in_set targets in
      match Subst.unify_atoms subst p (head_atom g d hi) with
      | None -> Error (Clash (q, pi))
      | Some subst -> unify_member g in_set q (pi + 1) subst rest)
    | k -> Error (Ambiguous_post (q, pi, k)))

let rec unify_members (g : Coordination_graph.t) in_set subst = function
  | [] -> Ok subst
  | q :: rest -> (
    match unify_member g in_set q 0 subst g.queries.(q).Query.post with
    | Ok subst -> unify_members g in_set subst rest
    | Error _ as e -> e)

let unify_posts g ~in_set ~members = unify_members g in_set Subst.empty members

let unify_set g ~members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace in_set q ()) members;
  unify_posts g ~in_set:(Hashtbl.mem in_set) ~members

let combined_body (g : Coordination_graph.t) ~members subst =
  let bodies =
    List.concat_map (fun q -> g.queries.(q).Query.body.Cq.atoms) members
  in
  Subst.apply_cq subst (Cq.make bodies)
