(* The string-keyed substitution the solvers unified with before
   member-local slots ([Entangled.Combine]): a map from variable names
   to terms over queries renamed apart.  Only tests use it, as the
   reference the slot unifier is held to. *)

open Relational
module M = Map.Make (String)

type t = Term.t M.t

let empty = M.empty

let is_empty = M.is_empty

let rec resolve s t =
  match t with
  | Term.Const _ -> t
  | Term.Var x -> (
    match M.find_opt x s with
    | None -> t
    | Some t' -> resolve s t')

let unify_terms s a b =
  let a = resolve s a and b = resolve s b in
  match (a, b) with
  | Term.Const u, Term.Const v -> if Value.equal u v then Some s else None
  | Term.Var x, Term.Var y -> if x = y then Some s else Some (M.add x b s)
  | Term.Var x, (Term.Const _ as c) | (Term.Const _ as c), Term.Var x ->
    Some (M.add x c s)

exception Clash

(* [unify_terms] raising [Clash], so a position that changes nothing
   allocates nothing. *)
let unify_terms_exn s a b =
  let a = resolve s a and b = resolve s b in
  match (a, b) with
  | Term.Const u, Term.Const v ->
    if Value.equal u v then s else raise_notrace Clash
  | Term.Var x, Term.Var y -> if String.equal x y then s else M.add x b s
  | Term.Var x, (Term.Const _ as c) | (Term.Const _ as c), Term.Var x ->
    M.add x c s

let rec unify_args s (xs : Term.t array) (ys : Term.t array) i =
  if i = Array.length xs then s
  else unify_args (unify_terms_exn s xs.(i) ys.(i)) xs ys (i + 1)

let unify_atoms s (a : Cq.atom) (b : Cq.atom) =
  if
    not (String.equal a.rel b.rel)
    || Array.length a.args <> Array.length b.args
  then None
  else match unify_args s a.args b.args 0 with
    | s -> Some s
    | exception Clash -> None

(* Applying a substitution shares what it leaves unchanged: an atom
   none of whose terms resolves elsewhere, and a query none of whose
   atoms changes, come back physically equal. *)
let rec unchanged s (args : Term.t array) i =
  i = Array.length args
  || (resolve s args.(i) == args.(i) && unchanged s args (i + 1))

let apply_atom s (a : Cq.atom) =
  if unchanged s a.args 0 then a
  else { a with args = Array.map (resolve s) a.args }

let rec apply_atoms s = function
  | [] as l -> l
  | a :: rest as l ->
    let a' = apply_atom s a and rest' = apply_atoms s rest in
    if a' == a && rest' == rest then l else a' :: rest'

let apply_cq s (q : Cq.t) =
  let atoms = apply_atoms s q.atoms in
  if atoms == q.atoms then q else { Cq.atoms }

let bindings s =
  M.fold
    (fun x _ acc ->
      let t = resolve s (Term.Var x) in
      if Term.equal t (Term.Var x) then acc else (x, t) :: acc)
    s []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let equal a b =
  List.equal
    (fun (x, t) (y, u) -> String.equal x y && Term.equal t u)
    (bindings a) (bindings b)

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, t) -> Format.fprintf ppf "%s := %a" x Term.pp t))
    (bindings s)
