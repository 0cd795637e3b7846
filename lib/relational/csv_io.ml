exception Parse_error of int * string

let parse_string input =
  let n = String.length input in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  let field_pending = ref false in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf;
    field_pending := false
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec plain i =
    if i >= n then begin
      if !field_pending || !fields <> [] || Buffer.length buf > 0 then flush_row ()
    end
    else
      match input.[i] with
      | ',' ->
        flush_field ();
        field_pending := true;
        plain (i + 1)
      | '\n' ->
        flush_row ();
        incr line;
        plain (i + 1)
      | '\r' when i + 1 < n && input.[i + 1] = '\n' ->
        flush_row ();
        incr line;
        plain (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        field_pending := true;
        plain (i + 1)
  and quoted i =
    if i >= n then raise (Parse_error (!line, "unterminated quoted field"))
    else
      match input.[i] with
      | '"' when i + 1 < n && input.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' ->
        field_pending := true;
        plain (i + 1)
      | '\n' ->
        incr line;
        Buffer.add_char buf '\n';
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !rows

let load_file path =
  let ic = open_in_bin path in
  let content =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in ic;
      raise e
  in
  close_in ic;
  parse_string content

let load_relation db ~schema ~path =
  let rows = load_file path in
  match rows with
  | [] -> raise (Parse_error (1, "empty file: " ^ path))
  | header :: data ->
    let expected = Array.to_list (Schema.attributes schema) in
    if header <> expected then
      raise
        (Parse_error
           ( 1,
             Printf.sprintf "header mismatch for %s: got [%s], expected [%s]"
               (Schema.name schema) (String.concat "; " header)
               (String.concat "; " expected) ));
    let r = Database.create_table db schema in
    List.iteri
      (fun i fields ->
        if List.length fields <> Schema.arity schema then
          raise
            (Parse_error
               ( i + 2,
                 Printf.sprintf "row has %d fields, expected %d"
                   (List.length fields) (Schema.arity schema) ));
        ignore
          (Relation.insert r (Tuple.make (List.map Value.of_string fields))))
      data;
    r

let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let write_string rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun fields ->
      Buffer.add_string buf (String.concat "," (List.map escape_field fields));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* A string field that {!Value.of_string} would read back as something
   else — ["42"], ["true"], ["'x'"] — is written in single quotes, which
   [of_string] strips. *)
let value_field v =
  match v with
  | Value.Str s when not (Value.equal (Value.of_string s) v) -> "'" ^ s ^ "'"
  | Value.Str s -> s
  | Value.Int _ | Value.Bool _ -> Value.to_string v

let save_relation r ~path =
  let header = Array.to_list (Schema.attributes (Relation.schema r)) in
  let rows =
    Relation.fold
      (fun acc t -> List.map value_field (Array.to_list t) :: acc)
      [] r
  in
  let oc = open_out_bin path in
  output_string oc (write_string (header :: List.rev rows));
  close_out oc
