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

let unify_atoms s (a : Cq.atom) (b : Cq.atom) =
  if a.rel <> b.rel || Array.length a.args <> Array.length b.args then None
  else begin
    let n = Array.length a.args in
    let rec loop s i =
      if i = n then Some s
      else
        match unify_terms s a.args.(i) b.args.(i) with
        | None -> None
        | Some s' -> loop s' (i + 1)
    in
    loop s 0
  end

let apply_atom s (a : Cq.atom) = { a with args = Array.map (resolve s) a.args }

let apply_cq s (q : Cq.t) = { Cq.atoms = List.map (apply_atom s) q.atoms }

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
