(* Reference printer for [Parser.query_to_string]: the Printf and
   String.concat rendering the query syntax was first printed with.
   [Parser] prints the same bytes through one reused buffer;
   test_entangled checks the two agree on random queries, and
   [Snapshot_oracle] prints the pool with this one. *)

open Relational
open Entangled

let is_bare_constant s =
  s <> ""
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let quote_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      match c with
      | '\'' | '\\' ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let value_to_syntax = function
  | Value.Int n -> string_of_int n
  | Value.Bool b -> string_of_bool b
  | Value.Str s -> if is_bare_constant s then s else quote_string s

let term_to_syntax = function
  | Term.Var x -> x
  | Term.Const v -> value_to_syntax v

let atom_to_syntax (a : Cq.atom) =
  Printf.sprintf "%s(%s)" a.rel
    (String.concat ", " (Array.to_list (Array.map term_to_syntax a.args)))

let query_to_string q =
  let atoms atoms = String.concat ", " (List.map atom_to_syntax atoms) in
  let body =
    match q.Query.body.Cq.atoms with
    | [] -> ""
    | bs -> " :- " ^ atoms bs
  in
  let name = if q.Query.name = "" then "" else q.Query.name ^ ": " in
  Printf.sprintf "query %s{ %s } %s%s." name (atoms q.Query.post)
    (atoms q.Query.head) body
