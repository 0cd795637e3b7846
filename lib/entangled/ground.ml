open Relational

exception Unbound

(* The body's answer: the probe's witness in place, or (through a
   core's retraction) a valuation. *)
type answer = Witness of Eval.witness | Valuation of Eval.valuation

(* Where a member variable's value comes from: the unifier, then the
   body's answer, then [fixed], then the active domain's least value,
   computed at most once. *)
type source = {
  db : Database.t;
  subst : Subst.t;
  answer : answer;
  fixed : (string * Value.t) list;
  mutable default : Value.t option;
}

let lookup answer x =
  match answer with
  | Witness w -> Eval.witness_value w x
  | Valuation v -> Eval.Binding.find_opt x v

let default_value src =
  match src.default with
  | Some v -> v
  | None ->
    let dom = Database.active_domain src.db in
    if Value.Set.is_empty dom then raise Unbound;
    let v = Value.Set.min_elt dom in
    src.default <- Some v;
    v

let rec fixed_value src rep = function
  | [] -> default_value src
  | (r, v) :: rest -> if String.equal r rep then v else fixed_value src rep rest

let value src t =
  match Subst.resolve src.subst t with
  | Term.Const v -> v
  | Term.Var rep -> (
    match lookup src.answer rep with
    | Some v -> v
    | None -> fixed_value src rep src.fixed)

(* Every variable of every member (postconditions, heads, bodies) is
   bound walking the atoms in place, so no per-query variable list is
   built.  Members are renamed apart, so a variable met again belongs
   to the member being walked: the member's variables bound so far sit
   in a reused array (a query has a handful), and a repeat skips the
   map.  Not reentrant.  [Unbound]: a free variable and an empty active
   domain. *)
let seen = ref (Array.make 16 "")
let nseen = ref 0

let rec was_seen x i =
  i < !nseen
  &&
  let y = Array.unsafe_get !seen i in
  y == x || String.equal y x || was_seen x (i + 1)

let see x =
  if !nseen = Array.length !seen then
    seen := Array.append !seen (Array.make !nseen "");
  !seen.(!nseen) <- x;
  incr nseen

let rec bind_args src acc (args : Term.t array) i =
  if i = Array.length args then acc
  else
    let acc =
      match args.(i) with
      | Term.Const _ -> acc
      | Term.Var x as t ->
        if was_seen x 0 then acc
        else begin
          see x;
          Eval.Binding.add x (value src t) acc
        end
    in
    bind_args src acc args (i + 1)

let rec bind_atoms src acc = function
  | [] -> acc
  | (a : Cq.atom) :: rest -> bind_atoms src (bind_args src acc a.args 0) rest

let rec bind_members src queries acc = function
  | [] -> acc
  | m :: rest ->
    let q = queries.(m) in
    nseen := 0;
    let acc = bind_atoms src (bind_atoms src acc q.Query.post) q.head in
    bind_members src queries (bind_atoms src acc q.body.Cq.atoms) rest

(* The members' bodies under [subst], one conjunction; a lone member's
   body is used as it is when the unifier leaves it unchanged. *)
let combined_body queries ~members subst =
  match members with
  | [ m ] -> Subst.apply_cq subst queries.(m).Query.body
  | _ ->
    Subst.apply_cq subst
      (Cq.make
         (List.concat_map (fun m -> queries.(m).Query.body.Cq.atoms) members))

let assignment_of src queries ~members ~into =
  match bind_members src queries into members with
  | valuation -> Some valuation
  | exception Unbound -> None

let solve ?(minimize = false) ?(fixed = []) ?(into = Eval.Binding.empty) db
    queries ~members subst =
  let g_body = combined_body queries ~members subst in
  if not minimize then
    match Eval.first db g_body with
    | None -> None
    | Some witness ->
      assignment_of
        { db; subst; answer = Witness witness; fixed; default = None }
        queries ~members ~into
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
      assignment_of
        { db; subst; answer = Valuation body_valuation; fixed; default = None }
        queries ~members ~into
  end
