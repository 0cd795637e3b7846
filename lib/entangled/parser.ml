open Relational

type statement =
  | Table of string * string list
  | Fact of string * Value.t list
  | Query_stmt of Query.t

type program = statement list

exception Syntax_error of int * string

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string     (* identifier, case preserved *)
  | INT of int
  | STRING of string    (* quoted *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | TURNSTILE           (* :- *)
  | DOT
  | EOF

let pp_token = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | COLON -> ":"
  | TURNSTILE -> ":-"
  | DOT -> "."
  | EOF -> "<eof>"

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let error msg = raise (Syntax_error (!line, msg)) in
  let int_literal digits =
    match int_of_string_opt digits with
    | Some k -> emit (INT k)
    | None -> error "integer literal out of range"
  in
  let rec scan i =
    if i >= n then emit EOF
    else
      match input.[i] with
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '\n' ->
        incr line;
        scan (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
        let rec skip j =
          if j >= n || input.[j] = '\n' then scan j else skip (j + 1)
        in
        skip (i + 2)
      | '{' ->
        emit LBRACE;
        scan (i + 1)
      | '}' ->
        emit RBRACE;
        scan (i + 1)
      | '(' ->
        emit LPAREN;
        scan (i + 1)
      | ')' ->
        emit RPAREN;
        scan (i + 1)
      | ',' ->
        emit COMMA;
        scan (i + 1)
      | '.' ->
        emit DOT;
        scan (i + 1)
      | ':' when i + 1 < n && input.[i + 1] = '-' ->
        emit TURNSTILE;
        scan (i + 2)
      | ':' ->
        emit COLON;
        scan (i + 1)
      | ('\'' | '"') as quote ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then error "unterminated string literal"
          else if input.[j] = '\\' && j + 1 < n then begin
            (* Backslash escapes: backslash-n is a newline, anything else
               is the character itself (quotes and backslash included). *)
            (match input.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | c -> Buffer.add_char buf c);
            str (j + 2)
          end
          else if input.[j] = quote then begin
            emit (STRING (Buffer.contents buf));
            scan (j + 1)
          end
          else begin
            if input.[j] = '\n' then incr line;
            Buffer.add_char buf input.[j];
            str (j + 1)
          end
        in
        str (i + 1)
      | '0' .. '9' ->
        let j = ref i in
        while !j < n && (match input.[!j] with '0' .. '9' -> true | _ -> false) do
          incr j
        done;
        int_literal (String.sub input i (!j - i));
        scan !j
      | '-' when i + 1 < n && (match input.[i + 1] with '0' .. '9' -> true | _ -> false) ->
        let j = ref (i + 1) in
        while !j < n && (match input.[!j] with '0' .. '9' -> true | _ -> false) do
          incr j
        done;
        int_literal (String.sub input i (!j - i));
        scan !j
      | c when is_ident_start c ->
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do
          incr j
        done;
        emit (IDENT (String.sub input i (!j - i)));
        scan !j
      | c -> error (Printf.sprintf "unexpected character %C" c)
  in
  scan 0;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type stream = {
  mutable toks : (token * int) list;
}

let peek st = match st.toks with [] -> (EOF, 0) | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  let t, line = peek st in
  if t = tok then advance st
  else
    raise
      (Syntax_error
         (line, Printf.sprintf "expected %s, found %s" (pp_token tok) (pp_token t)))

let syntax_error st msg =
  let _, line = peek st in
  raise (Syntax_error (line, msg))

let is_lowercase s = s <> "" && match s.[0] with 'a' .. 'z' -> true | _ -> false

let term_of_token st =
  match peek st with
  | INT n, _ ->
    advance st;
    Term.Const (Value.Int n)
  | STRING s, _ ->
    advance st;
    Term.Const (Value.Str s)
  | IDENT "true", _ ->
    advance st;
    Term.Const (Value.Bool true)
  | IDENT "false", _ ->
    advance st;
    Term.Const (Value.Bool false)
  | IDENT s, _ ->
    advance st;
    if is_lowercase s then Term.Var s else Term.Const (Value.Str s)
  | t, line ->
    raise (Syntax_error (line, Printf.sprintf "expected a term, found %s" (pp_token t)))

let parse_term_list st =
  let rec loop acc =
    let t = term_of_token st in
    match peek st with
    | COMMA, _ ->
      advance st;
      loop (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  match peek st with
  | RPAREN, _ -> []
  | _ -> loop []

let parse_atom st =
  match peek st with
  | IDENT rel, _ ->
    advance st;
    expect st LPAREN;
    let args = parse_term_list st in
    expect st RPAREN;
    { Cq.rel; args = Array.of_list args }
  | t, line ->
    raise
      (Syntax_error (line, Printf.sprintf "expected an atom, found %s" (pp_token t)))

(* Atom lists may be empty; they end at the closing delimiter given by
   [stop]. *)
let parse_atom_list st ~stop =
  let rec loop acc =
    let a = parse_atom st in
    match peek st with
    | COMMA, _ ->
      advance st;
      loop (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  let t, _ = peek st in
  if List.mem t stop then [] else loop []

let parse_query_body st name =
  expect st LBRACE;
  let post = parse_atom_list st ~stop:[ RBRACE ] in
  expect st RBRACE;
  let head = parse_atom_list st ~stop:[ TURNSTILE; DOT ] in
  let body =
    match peek st with
    | TURNSTILE, _ ->
      advance st;
      parse_atom_list st ~stop:[ DOT ]
    | _ -> []
  in
  expect st DOT;
  if head = [] then syntax_error st "query must have at least one head atom";
  Query.make ~name ~post ~head body

let parse_statement st =
  match peek st with
  | IDENT "table", _ ->
    advance st;
    let a = parse_atom st in
    expect st DOT;
    let attrs =
      Array.to_list a.args
      |> List.map (function
           | Term.Var x -> x
           | Term.Const v -> Value.to_string v)
    in
    Table (a.rel, attrs)
  | IDENT "fact", _ ->
    advance st;
    let a = parse_atom st in
    expect st DOT;
    let values =
      Array.to_list a.args
      |> List.map (function
           | Term.Const v -> v
           | Term.Var x ->
             syntax_error st (Printf.sprintf "fact contains variable %s" x))
    in
    Fact (a.rel, values)
  | IDENT "query", _ ->
    advance st;
    let name =
      match (peek st, st.toks) with
      | (IDENT n, _), _ :: (COLON, _) :: _ ->
        advance st;
        advance st;
        n
      | _ -> ""
    in
    Query_stmt (parse_query_body st name)
  | t, line ->
    raise
      (Syntax_error
         ( line,
           Printf.sprintf "expected 'table', 'fact' or 'query', found %s"
             (pp_token t) ))

let parse_program input =
  let st = { toks = tokenize input } in
  let rec loop acc =
    match peek st with
    | EOF, _ -> List.rev acc
    | _ -> loop (parse_statement st :: acc)
  in
  loop []

let parse_query input =
  let st = { toks = tokenize input } in
  (match peek st with
  | IDENT "query", _ -> advance st
  | _ -> ());
  let name =
    match (peek st, st.toks) with
    | (IDENT n, _), _ :: (COLON, _) :: _ ->
      advance st;
      advance st;
      n
    | _ -> ""
  in
  let q = parse_query_body st name in
  expect st EOF;
  q

let load_program db program =
  List.filter_map
    (fun stmt ->
      match stmt with
      | Table (name, attrs) ->
        ignore (Database.create_table' db name attrs);
        None
      | Fact (rel, values) ->
        (match Database.relation_opt db rel with
        | None ->
          invalid_arg (Printf.sprintf "fact for undeclared table %s" rel)
        | Some _ -> Database.insert db rel values);
        None
      | Query_stmt q -> Some q)
    program

let is_bare_constant s =
  (* Reads back as the same constant: capitalized identifier. *)
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
