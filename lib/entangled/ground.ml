open Relational

exception Unbound

(* The body's answer: the probe's witness in place, or (through a
   core's retraction) a valuation. *)
type answer = Witness of Eval.witness | Valuation of Eval.valuation

(* The active domain's least value, computed at most once a call. *)
let default = ref None

let default_value db =
  match !default with
  | Some v -> v
  | None ->
    let dom = Database.active_domain db in
    if Value.Set.is_empty dom then raise Unbound;
    let v = Value.Set.min_elt dom in
    default := Some v;
    v

(* A class the body mentions takes the answer's value of its plan
   slot. *)
let answer_value db t answer k =
  match answer with
  | Witness w -> Eval.witness_slot w k
  | Valuation b -> (
    match Eval.Binding.find_opt (Combine.plan_name t k) b with
    | Some v -> v
    | None -> default_value db)

(* Every slot of every member (postconditions, heads, bodies) takes its
   class's constant, else the answer's value of its class, else the
   active domain's least value.  [Unbound]: a free variable and an
   empty active domain. *)
let rec write db t answer (vs : Combine.values) = function
  | [] -> ()
  | m :: rest ->
    for s = Combine.offset t m to Combine.offset t (m + 1) - 1 do
      let r = Combine.find t s in
      vs.v.(s - vs.base) <-
        (match Combine.value t r with
        | Some v -> v
        | None -> (
          match Combine.plan_slot t r with
          | -1 -> default_value db
          | k -> answer_value db t answer k))
    done;
    write db t answer vs rest

let written db t answer vs members =
  match write db t answer vs members with
  | () -> true
  | exception Unbound -> false

let solve ?(minimize = false) db t ~members vs =
  default := None;
  let g_body = Combine.combined_body t ~members in
  if not minimize then
    match Eval.first db g_body with
    | None -> false
    | Some witness -> written db t (Witness witness) vs members
  else begin
    let core, retraction = Containment.minimize_with_retraction g_body in
    match Eval.find_first db core with
    | None -> false
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
      written db t (Valuation body_valuation) vs members
  end

let valuation ?minimize db t ~members =
  let lo = List.fold_left Int.min max_int members
  and hi = List.fold_left Int.max (-1) members in
  let base = Combine.offset t lo in
  let vs = Combine.values ~base ~len:(Combine.offset t (hi + 1) - base) in
  if solve ?minimize db t ~members vs then
    Some (Combine.valuation t ~members vs)
  else None
