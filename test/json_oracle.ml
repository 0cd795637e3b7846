(* Reference codec for [Json]: the recursive-descent parser over an
   option-per-character [peek] and the [String.iter] printer the JSON
   frames were first read and written with.  [Json] now scans by index
   and prints through a caller's buffer; test_json checks that the two
   parse every mutant to the same value or the same error message, and
   print random values to the same bytes. *)

open Json

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'
        | Some '\\' -> advance (); Buffer.add_char b '\\'
        | Some '/' -> advance (); Buffer.add_char b '/'
        | Some 'b' -> advance (); Buffer.add_char b '\b'
        | Some 'f' -> advance (); Buffer.add_char b '\012'
        | Some 'n' -> advance (); Buffer.add_char b '\n'
        | Some 'r' -> advance (); Buffer.add_char b '\r'
        | Some 't' -> advance (); Buffer.add_char b '\t'
        | Some 'u' ->
          advance ();
          let cp = hex4 () in
          (* A high surrogate and the low surrogate escaped right
             after it are one code point: encode it as the same 4
             UTF-8 bytes a raw spelling would carry, so both
             spellings of a constant are one value. *)
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else fail "unpaired surrogate"
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
            else cp
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int cp)
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let parse s = match parse_exn s with v -> Ok v | exception Bad m -> Error m


let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if f = 0.0 && Float.sign_bit f then Buffer.add_string b "-0.0"
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let to_string v =
  let b = Buffer.create 64 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> add_float b f
    | Str s -> add_string b s
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b
