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
   component it solves.  The variables met so far sit in two reused
   arrays, scanned (a query has a handful), so renaming allocates only
   the renamed atoms, names and terms.  Not reentrant. *)
let seen_vars = ref (Array.make 16 "")
let seen_terms = ref (Array.make 16 (Term.Var ""))
let seen = ref 0

let rec find_seen x i =
  if i = !seen then -1
  else
    let y = Array.unsafe_get !seen_vars i in
    if y == x || String.equal y x then i else find_seen x (i + 1)

let renamed prefix x =
  match find_seen x 0 with
  | -1 ->
    let t = Term.Var (prefix ^ x) in
    if !seen = Array.length !seen_vars then begin
      seen_vars := Array.append !seen_vars (Array.make !seen "");
      seen_terms := Array.append !seen_terms (Array.make !seen t)
    end;
    !seen_vars.(!seen) <- x;
    !seen_terms.(!seen) <- t;
    incr seen;
    t
  | i -> !seen_terms.(i)

let rename_term prefix = function
  | Term.Const _ as t -> t
  | Term.Var x -> renamed prefix x

let rename_atom prefix (a : Cq.atom) =
  let n = Array.length a.args in
  if n = 0 then a
  else begin
    let args = Array.make n (rename_term prefix a.args.(0)) in
    for i = 1 to n - 1 do
      args.(i) <- rename_term prefix a.args.(i)
    done;
    { a with args }
  end

let rec rename_atoms prefix = function
  | [] -> []
  | a :: rest ->
    let a = rename_atom prefix a in
    a :: rename_atoms prefix rest

let rename_with ~prefix ~name q =
  seen := 0;
  let post = rename_atoms prefix q.post in
  let head = rename_atoms prefix q.head in
  let body = { Cq.atoms = rename_atoms prefix q.body.Cq.atoms } in
  { name; post; head; body }

let rename ~prefix q = rename_with ~prefix ~name:q.name q

(* ["q<i>."], built in one string: every evaluation renames each member
   of its component. *)
let prefix_of i =
  if i < 0 then "q" ^ string_of_int i ^ "."
  else begin
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let d = digits i in
    let b = Bytes.create (d + 2) in
    Bytes.unsafe_set b 0 'q';
    let rec write n k =
      Bytes.unsafe_set b k (Char.unsafe_chr (48 + (n mod 10)));
      if n >= 10 then write (n / 10) (k - 1)
    in
    write i d;
    Bytes.unsafe_set b (d + 1) '.';
    Bytes.unsafe_to_string b
  end

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
