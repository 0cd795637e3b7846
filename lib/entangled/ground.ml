open Relational

exception Unbound

(* Every variable of every member (postconditions, heads, bodies) is
   bound once, walking the atoms in place: a variable met again is
   already in the accumulator, so no per-query variable list is built.
   [Unbound]: a free variable and an empty active domain. *)
let assignment_of db queries ~members subst body_valuation =
  let default_value =
    lazy
      (let dom = Database.active_domain db in
       if Value.Set.is_empty dom then raise Unbound else Value.Set.min_elt dom)
  in
  let bind acc = function
    | Term.Const _ -> acc
    | Term.Var x as t ->
      if Eval.Binding.mem x acc then acc
      else
        Eval.Binding.add x
          (match Subst.resolve subst t with
          | Term.Const v -> v
          | Term.Var rep -> (
            match Eval.Binding.find rep body_valuation with
            | v -> v
            | exception Not_found -> Lazy.force default_value))
          acc
  in
  let atoms acc =
    List.fold_left (fun acc (a : Cq.atom) -> Array.fold_left bind acc a.args) acc
  in
  match
    List.fold_left
      (fun acc m ->
        let q = queries.(m) in
        atoms (atoms (atoms acc q.Query.post) q.head) q.body.Cq.atoms)
      Eval.Binding.empty members
  with
  | valuation -> Some valuation
  | exception Unbound -> None

let solve ?(minimize = false) ?(fixed = Eval.Binding.empty) db queries
    ~members subst =
  let assignment_of body_valuation =
    let body_valuation =
      if Eval.Binding.is_empty fixed then body_valuation
      else Eval.Binding.union (fun _ v _ -> Some v) body_valuation fixed
    in
    assignment_of db queries ~members subst body_valuation
  in
  let g_body =
    let bodies =
      List.concat_map (fun q -> queries.(q).Query.body.Cq.atoms) members
    in
    Subst.apply_cq subst (Cq.make bodies)
  in
  if not minimize then
    match Eval.find_first db g_body with
    | None -> None
    | Some body_valuation -> assignment_of body_valuation
  else begin
    let core, retraction = Containment.minimize_with_retraction g_body in
    match Eval.find_first db core with
    | None -> None
    | Some core_valuation ->
      (* Extend the core witness to every variable of the original body
         through the retraction (Chandra–Merlin). *)
      let body_valuation =
        List.fold_left
          (fun acc (x, t) ->
            match t with
            | Term.Const v -> Eval.Binding.add x v acc
            | Term.Var y -> (
              match Eval.Binding.find_opt y core_valuation with
              | Some v -> Eval.Binding.add x v acc
              | None -> acc))
          Eval.Binding.empty retraction
      in
      assignment_of body_valuation
  end
