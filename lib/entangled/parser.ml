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

(* Tokens are constant constructors, compared with [==]: an
   identifier's or a string's text and an integer's value are the
   lexer's [text] and [num]. *)
type token =
  | IDENT     (* identifier, case preserved *)
  | INT
  | STRING    (* quoted *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | TURNSTILE (* :- *)
  | DOT
  | EOF

(* One token of lookahead: [tok], read on line [tok_line], is the
   current token; the next one is scanned from [pos] on line [line]. *)
type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable text : string;
  mutable num : int;
  mutable lex_failed : bool;
}

let lex_error lx msg =
  lx.lex_failed <- true;
  raise (Syntax_error (lx.line, msg))

let set lx tok pos =
  lx.tok <- tok;
  lx.tok_line <- lx.line;
  lx.pos <- pos

let is_digit c = c >= '0' && c <= '9'

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let rec skip_while p s j =
  if j < String.length s && p s.[j] then skip_while p s (j + 1) else j

(* The literal [src.[i, j)]: an optional minus and decimal digits.  At
   most 18 digits cannot overflow and are read in place. *)
let int_literal lx i j =
  let s = lx.src in
  let neg = s.[i] = '-' in
  let first = if neg then i + 1 else i in
  (if j - first <= 18 then begin
     let v = ref 0 in
     for k = first to j - 1 do
       v := (!v * 10) + (Char.code s.[k] - Char.code '0')
     done;
     lx.num <- (if neg then - !v else !v)
   end
   else
     match int_of_string_opt (String.sub s i (j - i)) with
     | Some k -> lx.num <- k
     | None -> lex_error lx "integer literal out of range");
  set lx INT j

(* A quoted literal whose text starts at [start].  Backslash escapes:
   backslash-n is a newline, anything else is the character itself
   (quotes and backslash included).  A literal with no backslash is one
   [String.sub]. *)
let string_literal lx quote start =
  let s = lx.src in
  let n = String.length s in
  let j = ref start in
  while !j < n && s.[!j] <> quote && s.[!j] <> '\\' do
    if s.[!j] = '\n' then lx.line <- lx.line + 1;
    incr j
  done;
  if !j < n && s.[!j] = quote then begin
    lx.text <- String.sub s start (!j - start);
    set lx STRING (!j + 1)
  end
  else begin
    let buf = Buffer.create (!j - start + 16) in
    Buffer.add_substring buf s start (!j - start);
    let rec go j =
      if j >= n then lex_error lx "unterminated string literal"
      else if s.[j] = '\\' && j + 1 < n then begin
        Buffer.add_char buf (match s.[j + 1] with 'n' -> '\n' | c -> c);
        go (j + 2)
      end
      else if s.[j] = quote then begin
        lx.text <- Buffer.contents buf;
        set lx STRING (j + 1)
      end
      else begin
        if s.[j] = '\n' then lx.line <- lx.line + 1;
        Buffer.add_char buf s.[j];
        go (j + 1)
      end
    in
    go !j
  end

(* Scan the next token into [lx]. *)
let rec advance lx =
  let s = lx.src in
  let n = String.length s in
  let i = lx.pos in
  if i >= n then set lx EOF i
  else
    match s.[i] with
    | ' ' | '\t' | '\r' ->
      lx.pos <- i + 1;
      advance lx
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.pos <- i + 1;
      advance lx
    | '-' when i + 1 < n && s.[i + 1] = '-' ->
      lx.pos <- skip_while (fun c -> c <> '\n') s (i + 2);
      advance lx
    | '{' -> set lx LBRACE (i + 1)
    | '}' -> set lx RBRACE (i + 1)
    | '(' -> set lx LPAREN (i + 1)
    | ')' -> set lx RPAREN (i + 1)
    | ',' -> set lx COMMA (i + 1)
    | '.' -> set lx DOT (i + 1)
    | ':' when i + 1 < n && s.[i + 1] = '-' -> set lx TURNSTILE (i + 2)
    | ':' -> set lx COLON (i + 1)
    | ('\'' | '"') as quote -> string_literal lx quote (i + 1)
    | '0' .. '9' -> int_literal lx i (skip_while is_digit s (i + 1))
    | '-' when i + 1 < n && is_digit s.[i + 1] ->
      int_literal lx i (skip_while is_digit s (i + 1))
    | c when is_ident_start c ->
      let j = skip_while is_ident_char s (i + 1) in
      lx.text <- String.sub s i (j - i);
      set lx IDENT j
    | c -> lex_error lx (Printf.sprintf "unexpected character %C" c)

let lexer src =
  let lx =
    {
      src;
      pos = 0;
      line = 1;
      tok = EOF;
      tok_line = 1;
      text = "";
      num = 0;
      lex_failed = false;
    }
  in
  advance lx;
  lx

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

(* [t] as an error message spells it; an identifier, integer or string
   only as the current token. *)
let pp_token lx = function
  | IDENT -> lx.text
  | INT -> string_of_int lx.num
  | STRING -> Printf.sprintf "%S" lx.text
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | COLON -> ":"
  | TURNSTILE -> ":-"
  | DOT -> "."
  | EOF -> "<eof>"

let syntax_error lx msg = raise (Syntax_error (lx.tok_line, msg))

let found lx what =
  syntax_error lx
    (Printf.sprintf "expected %s, found %s" what (pp_token lx lx.tok))

let expect lx tok =
  if lx.tok == tok then advance lx else found lx (pp_token lx tok)

let is_lowercase s = s <> "" && match s.[0] with 'a' .. 'z' -> true | _ -> false

let term_of_token lx =
  match lx.tok with
  | INT ->
    let n = lx.num in
    advance lx;
    Term.Const (Value.Int n)
  | STRING ->
    let s = lx.text in
    advance lx;
    Term.Const (Value.Str s)
  | IDENT ->
    let s = lx.text in
    advance lx;
    if s = "true" then Term.Const (Value.Bool true)
    else if s = "false" then Term.Const (Value.Bool false)
    else if is_lowercase s then Term.Var s
    else Term.Const (Value.Str s)
  | _ -> found lx "a term"

let parse_term_list lx =
  let rec loop acc =
    let t = term_of_token lx in
    if lx.tok == COMMA then begin
      advance lx;
      loop (t :: acc)
    end
    else List.rev (t :: acc)
  in
  if lx.tok == RPAREN then [] else loop []

let parse_atom lx =
  if lx.tok != IDENT then found lx "an atom"
  else begin
    let rel = lx.text in
    advance lx;
    expect lx LPAREN;
    let args = parse_term_list lx in
    expect lx RPAREN;
    { Cq.rel; args = Array.of_list args }
  end

(* Atom lists may be empty; they end at the closing delimiter [stop] or
   [stop']. *)
let parse_atom_list lx stop stop' =
  let rec loop acc =
    let a = parse_atom lx in
    if lx.tok == COMMA then begin
      advance lx;
      loop (a :: acc)
    end
    else List.rev (a :: acc)
  in
  if lx.tok == stop || lx.tok == stop' then [] else loop []

(* An optional [name:] before a query body.  An identifier not followed
   by a colon is where the body's brace should be. *)
let query_name lx =
  if lx.tok != IDENT then ""
  else begin
    let name = lx.text and line = lx.tok_line in
    advance lx;
    if lx.tok != COLON then
      raise (Syntax_error (line, "expected {, found " ^ name));
    advance lx;
    name
  end

let parse_query_body lx name =
  expect lx LBRACE;
  let post = parse_atom_list lx RBRACE RBRACE in
  expect lx RBRACE;
  let head = parse_atom_list lx TURNSTILE DOT in
  let body =
    if lx.tok == TURNSTILE then begin
      advance lx;
      parse_atom_list lx DOT DOT
    end
    else []
  in
  expect lx DOT;
  (match head with
  | [] -> syntax_error lx "query must have at least one head atom"
  | _ :: _ -> ());
  Query.make ~name ~post ~head body

let is_keyword lx k = lx.tok == IDENT && lx.text = k

let parse_statement lx =
  if is_keyword lx "table" then begin
    advance lx;
    let a = parse_atom lx in
    expect lx DOT;
    let attrs =
      Array.to_list a.args
      |> List.map (function
           | Term.Var x -> x
           | Term.Const v -> Value.to_string v)
    in
    Table (a.rel, attrs)
  end
  else if is_keyword lx "fact" then begin
    advance lx;
    let a = parse_atom lx in
    expect lx DOT;
    let values =
      Array.to_list a.args
      |> List.map (function
           | Term.Const v -> v
           | Term.Var x ->
             syntax_error lx (Printf.sprintf "fact contains variable %s" x))
    in
    Fact (a.rel, values)
  end
  else if is_keyword lx "query" then begin
    advance lx;
    let name = query_name lx in
    Query_stmt (parse_query_body lx name)
  end
  else found lx "'table', 'fact' or 'query'"

(* A lexical error anywhere in the input wins over a syntax error
   before it, as if the whole input were lexed before it is parsed: on
   a failed parse the rest of the input is lexed, and the first
   lexical error there is raised instead. *)
let parse_all input f =
  let lx = lexer input in
  match f lx with
  | v -> v
  | exception e when not lx.lex_failed ->
    while lx.tok != EOF do
      advance lx
    done;
    raise e

let parse_program input =
  parse_all input (fun lx ->
      let rec loop acc =
        if lx.tok == EOF then List.rev acc else loop (parse_statement lx :: acc)
      in
      loop [])

let parse_query input =
  parse_all input (fun lx ->
      if is_keyword lx "query" then advance lx;
      let name = query_name lx in
      let q = parse_query_body lx name in
      expect lx EOF;
      q)

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

let add_quoted buf s =
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
  Buffer.add_char buf '\''

let add_value buf = function
  | Value.Int n -> Buffer.add_string buf (Int.to_string n)
  | Value.Bool b -> Buffer.add_string buf (Bool.to_string b)
  | Value.Str s ->
    if is_bare_constant s then Buffer.add_string buf s else add_quoted buf s

let value_to_syntax v =
  let buf = Buffer.create 16 in
  add_value buf v;
  Buffer.contents buf

let add_atoms buf atoms =
  List.iteri
    (fun i (a : Cq.atom) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf a.rel;
      Buffer.add_char buf '(';
      Array.iteri
        (fun j t ->
          if j > 0 then Buffer.add_string buf ", ";
          match t with
          | Term.Var x -> Buffer.add_string buf x
          | Term.Const v -> add_value buf v)
        a.args;
      Buffer.add_char buf ')')
    atoms

(* The journal prints every submitted query, so the printer reuses one
   buffer. *)
let printer = Buffer.create 256

let query_to_string q =
  let buf = printer in
  Buffer.clear buf;
  Buffer.add_string buf "query ";
  if q.Query.name <> "" then begin
    Buffer.add_string buf q.Query.name;
    Buffer.add_string buf ": "
  end;
  Buffer.add_string buf "{ ";
  add_atoms buf q.Query.post;
  Buffer.add_string buf " } ";
  add_atoms buf q.Query.head;
  (match q.Query.body.Cq.atoms with
  | [] -> ()
  | body ->
    Buffer.add_string buf " :- ";
    add_atoms buf body);
  Buffer.add_char buf '.';
  Buffer.contents buf
