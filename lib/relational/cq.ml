type atom = {
  rel : string;
  args : Term.t array;
}

type t = { atoms : atom list }

let atom rel args = { rel; args = Array.of_list args }

let make atoms = { atoms }

let atom_variables a =
  Array.fold_left
    (fun acc t -> match t with Term.Var x -> x :: acc | Term.Const _ -> acc)
    [] a.args
  |> List.rev

let variables q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun x ->
          if not (Hashtbl.mem seen x) then begin
            Hashtbl.add seen x ();
            out := x :: !out
          end)
        (atom_variables a))
    q.atoms;
  List.rev !out

let is_ground q =
  List.for_all
    (fun a -> Array.for_all Term.is_const a.args)
    q.atoms

let rename_variables f q =
  {
    atoms =
      List.map (fun a -> { a with args = Array.map (Term.rename f) a.args }) q.atoms;
  }

let substitute_atom f a =
  let subst_term = function
    | Term.Var x as t -> Option.value ~default:t (f x)
    | Term.Const _ as t -> t
  in
  { a with args = Array.map subst_term a.args }

let substitute f q = { atoms = List.map (substitute_atom f) q.atoms }

let pp_atom ppf a =
  Format.fprintf ppf "%s(%s)" a.rel
    (String.concat ", "
       (Array.to_list (Array.map (Format.asprintf "%a" Term.pp) a.args)))

let pp ppf q =
  match q.atoms with
  | [] -> Format.pp_print_string ppf "true"
  | atoms ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
      pp_atom ppf atoms

let compare_atom a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    if la <> lb then Int.compare la lb
    else
      let rec loop i =
        if i = la then 0
        else
          let c = Term.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0

let equal_atom a b = compare_atom a b = 0
