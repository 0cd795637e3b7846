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

(* Only the batch solvers rename, whose printed valuations name
   variables: the online engine and the unifier name a variable by its
   member and local index ({!Combine}). *)
let rename_with ~prefix ~name q =
  let term = function Term.Var x -> Term.Var (prefix ^ x) | c -> c in
  let atoms =
    List.map (fun (a : Cq.atom) -> { a with args = Array.map term a.args })
  in
  let body = { Cq.atoms = atoms q.body.atoms } in
  { name; post = atoms q.post; head = atoms q.head; body }

let rename ~prefix q = rename_with ~prefix ~name:q.name q

(* In one allocation: every fired set names its members' variables
   so. *)
let prefixed i x =
  if i < 0 then "q" ^ string_of_int i ^ "." ^ x
  else begin
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let d = digits i and n = String.length x in
    let b = Bytes.make (d + 2 + n) 'q' in
    let rec write n k =
      Bytes.unsafe_set b k (Char.unsafe_chr (48 + (n mod 10)));
      if n >= 10 then write (n / 10) (k - 1)
    in
    write i d;
    Bytes.set b (d + 1) '.';
    Bytes.blit_string x 0 b (d + 2) n;
    Bytes.unsafe_to_string b
  end

let prefix_of i = prefixed i ""

let rename_apart i q =
  let prefix = prefix_of i in
  let name =
    if q.name = "" then String.sub prefix 0 (String.length prefix - 1)
    else q.name
  in
  rename_with ~prefix ~name q

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
