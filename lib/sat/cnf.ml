type literal = {
  var : int;
  positive : bool;
}

type clause = literal list

type t = {
  num_vars : int;
  clauses : clause list;
}

let lit v =
  if v = 0 then invalid_arg "Cnf.lit: zero literal";
  if v > 0 then { var = v; positive = true }
  else { var = -v; positive = false }

let make ~num_vars clauses =
  let convert c =
    List.map
      (fun v ->
        let l = lit v in
        if l.var > num_vars then
          invalid_arg
            (Printf.sprintf "Cnf.make: variable %d > num_vars %d" l.var num_vars);
        l)
      c
  in
  { num_vars; clauses = List.map convert clauses }

type assignment = bool array

let eval_literal l (a : assignment) = if l.positive then a.(l.var) else not a.(l.var)

let eval_clause c a = List.exists (fun l -> eval_literal l a) c

let eval f a = List.for_all (fun c -> eval_clause c a) f.clauses

let clause_count f = List.length f.clauses

let is_three_cnf f =
  List.for_all
    (fun c ->
      List.length c = 3
      && List.length (List.sort_uniq Int.compare (List.map (fun l -> l.var) c)) = 3)
    f.clauses

let pp_literal ppf l =
  Format.fprintf ppf "%sx%d" (if l.positive then "" else "!") l.var

let pp ppf f =
  if f.clauses = [] then Format.pp_print_string ppf "true"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
      (fun ppf c ->
        Format.fprintf ppf "(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
             pp_literal)
          c)
      ppf f.clauses
