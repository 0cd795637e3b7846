open Relational

type t = {
  name : string;
  post : Cq.atom list;
  head : Cq.atom list;
  body : Cq.t;
}

let make ?(name = "") ~post ~head body =
  if head = [] then invalid_arg "Query.make: empty head";
  { name; post; head; body = Cq.make body }

let variables q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let scan_atom (a : Cq.atom) =
    Array.iter
      (function
        | Term.Var x ->
          if not (Hashtbl.mem seen x) then begin
            Hashtbl.add seen x ();
            out := x :: !out
          end
        | Term.Const _ -> ())
      a.args
  in
  List.iter scan_atom q.post;
  List.iter scan_atom q.head;
  List.iter scan_atom q.body.atoms;
  List.rev !out

let distinct_rels atoms =
  List.sort_uniq String.compare (List.map (fun (a : Cq.atom) -> a.rel) atoms)

let answer_relations q = distinct_rels (q.post @ q.head)

let body_relations q = distinct_rels q.body.atoms

(* Each distinct variable is renamed once, and its occurrences share
   the renamed term: an evaluation renames every member of the
   component it solves. *)
let rename ~prefix q =
  let renamed = ref [] in
  let term = function
    | Term.Const _ as t -> t
    | Term.Var x ->
      let rec find = function
        | (y, t) :: rest -> if String.equal x y then t else find rest
        | [] ->
          let t = Term.Var (prefix ^ x) in
          renamed := (x, t) :: !renamed;
          t
      in
      find !renamed
  in
  let rename_atom (a : Cq.atom) = { a with args = Array.map term a.args } in
  {
    q with
    post = List.map rename_atom q.post;
    head = List.map rename_atom q.head;
    body = { Cq.atoms = List.map rename_atom q.body.Cq.atoms };
  }

let rename_apart i q =
  let name = "q" ^ string_of_int i in
  let q = rename ~prefix:(name ^ ".") q in
  if q.name = "" then { q with name } else q

let rename_set qs = Array.of_list (List.mapi rename_apart qs)

let well_formed db q =
  let problems = ref [] in
  List.iter
    (fun r ->
      if not (Database.mem_relation db r) then
        problems := Printf.sprintf "body relation %s not in schema" r :: !problems)
    (body_relations q);
  List.iter
    (fun r ->
      if Database.mem_relation db r then
        problems :=
          Printf.sprintf "answer relation %s collides with the schema" r
          :: !problems)
    (answer_relations q);
  (* Answer atoms over the same symbol must agree on arity, otherwise no
     unification can ever link them. *)
  let arities = Hashtbl.create 8 in
  List.iter
    (fun (a : Cq.atom) ->
      let n = Array.length a.args in
      match Hashtbl.find_opt arities a.rel with
      | None -> Hashtbl.add arities a.rel n
      | Some n' ->
        if n <> n' then
          problems :=
            Printf.sprintf "answer relation %s used with arities %d and %d"
              a.rel n' n
            :: !problems)
    (q.post @ q.head);
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

let range_restricted q =
  let body_vars = Cq.variables q.body in
  let atom_vars atoms =
    List.concat_map (fun a -> Cq.atom_variables a) atoms
  in
  List.for_all
    (fun x -> List.mem x body_vars)
    (atom_vars q.post @ atom_vars q.head)

let pp_atoms ppf atoms =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    Cq.pp_atom ppf atoms

let pp ppf q =
  if q.name <> "" then Format.fprintf ppf "%s: " q.name;
  Format.fprintf ppf "{@[%a@]} @[%a@] :- @[%a@]" pp_atoms q.post pp_atoms
    q.head Cq.pp q.body

let equal a b =
  a.name = b.name
  && List.equal Cq.equal_atom a.post b.post
  && List.equal Cq.equal_atom a.head b.head
  && List.equal Cq.equal_atom a.body.atoms b.body.atoms
