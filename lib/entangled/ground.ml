open Relational

let assignment_of db queries ~members subst body_valuation =
  let default_value =
    lazy
      (let dom = Database.active_domain db in
       if Value.Set.is_empty dom then None else Some (Value.Set.min_elt dom))
  in
  let extend acc x =
    if Eval.Binding.mem x acc then Some acc
    else
      match Subst.resolve subst (Term.Var x) with
      | Term.Const v -> Some (Eval.Binding.add x v acc)
      | Term.Var rep -> (
        match Eval.Binding.find_opt rep body_valuation with
        | Some v -> Some (Eval.Binding.add x v acc)
        | None -> (
          match Lazy.force default_value with
          | None -> None
          | Some v -> Some (Eval.Binding.add x v acc)))
  in
  let vars =
    List.concat_map (fun q -> Query.variables queries.(q)) members
  in
  List.fold_left
    (fun acc x -> match acc with None -> None | Some acc -> extend acc x)
    (Some Eval.Binding.empty) vars

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
