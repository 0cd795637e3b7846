(* An index-based scanner and a Buffer printer.  See the .mli for the
   contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* The bytes [base, stop) of [src] are the document; [pos] is the next
   byte to read.  Error offsets are relative to [base]. *)
type scanner = { src : string; base : int; stop : int; mutable pos : int }

let fail sc msg =
  raise (Bad (Printf.sprintf "%s at byte %d" msg (sc.pos - sc.base)))

let at sc c = sc.pos < sc.stop && String.unsafe_get sc.src sc.pos = c

let rec skip_ws sc =
  if sc.pos < sc.stop then
    match String.unsafe_get sc.src sc.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      sc.pos <- sc.pos + 1;
      skip_ws sc
    | _ -> ()

let expect sc c =
  if at sc c then sc.pos <- sc.pos + 1
  else fail sc (Printf.sprintf "expected '%c'" c)

let literal sc word value =
  for i = 0 to String.length word - 1 do
    expect sc word.[i]
  done;
  value

let hex4 sc =
  if sc.pos + 4 > sc.stop then fail sc "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d =
      match sc.src.[sc.pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail sc "bad \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  sc.pos <- sc.pos + 4;
  !v

(* The code point of a \u escape whose 4 hex digits start at [pos].  A
   high surrogate and the low surrogate escaped right after it are one
   code point: it is encoded as the same 4 UTF-8 bytes a raw spelling
   would carry, so both spellings of a constant are one value. *)
let code_point sc =
  let cp = hex4 sc in
  if cp >= 0xD800 && cp <= 0xDBFF then begin
    if
      sc.pos + 2 <= sc.stop
      && sc.src.[sc.pos] = '\\'
      && sc.src.[sc.pos + 1] = 'u'
    then begin
      sc.pos <- sc.pos + 2;
      let lo = hex4 sc in
      if lo < 0xDC00 || lo > 0xDFFF then fail sc "unpaired surrogate";
      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail sc "unpaired surrogate"
  end
  else if cp >= 0xDC00 && cp <= 0xDFFF then fail sc "unpaired surrogate"
  else cp

(* Advance [pos] to the next quote or backslash, or to [stop]. *)
let rec plain_run sc =
  if sc.pos < sc.stop then
    match String.unsafe_get sc.src sc.pos with
    | '"' | '\\' -> ()
    | _ ->
      sc.pos <- sc.pos + 1;
      plain_run sc

(* The rest of a string that holds an escape, [pos] at a backslash. *)
let rec escaped_string sc b =
  if sc.pos >= sc.stop then fail sc "unterminated string";
  match sc.src.[sc.pos] with
  | '"' ->
    sc.pos <- sc.pos + 1;
    Buffer.contents b
  | '\\' ->
    sc.pos <- sc.pos + 1;
    let short c =
      sc.pos <- sc.pos + 1;
      Buffer.add_char b c
    in
    (if sc.pos >= sc.stop then fail sc "bad escape"
     else
       match sc.src.[sc.pos] with
       | '"' -> short '"'
       | '\\' -> short '\\'
       | '/' -> short '/'
       | 'b' -> short '\b'
       | 'f' -> short '\012'
       | 'n' -> short '\n'
       | 'r' -> short '\r'
       | 't' -> short '\t'
       | 'u' ->
         sc.pos <- sc.pos + 1;
         Buffer.add_utf_8_uchar b (Uchar.of_int (code_point sc))
       | _ -> fail sc "bad escape");
    escaped_string sc b
  | _ ->
    let start = sc.pos in
    plain_run sc;
    Buffer.add_substring b sc.src start (sc.pos - start);
    escaped_string sc b

(* A string with no escape is one [String.sub] of the input. *)
let parse_string sc =
  expect sc '"';
  let start = sc.pos in
  plain_run sc;
  if sc.pos >= sc.stop then fail sc "unterminated string"
  else if String.unsafe_get sc.src sc.pos = '"' then begin
    sc.pos <- sc.pos + 1;
    String.sub sc.src start (sc.pos - 1 - start)
  end
  else begin
    let b = Buffer.create (sc.pos - start + 16) in
    Buffer.add_substring b sc.src start (sc.pos - start);
    escaped_string sc b
  end

let is_digit c = c >= '0' && c <= '9'

(* [int_of_string_opt] of the token [first, stop), when the token is an
   optional minus and at most 18 decimal digits: such a value cannot
   overflow, and leading zeros read as decimal there too. *)
let small_int src first stop =
  let neg = first < stop && src.[first] = '-' in
  let start = if neg then first + 1 else first in
  let n = stop - start in
  if n < 1 || n > 18 then None
  else begin
    let v = ref 0 and ok = ref true and i = ref start in
    while !ok && !i < stop do
      let c = String.unsafe_get src !i in
      if is_digit c then v := (!v * 10) + (Char.code c - Char.code '0')
      else ok := false;
      incr i
    done;
    if !ok then Some (if neg then - !v else !v) else None
  end

let parse_number sc =
  let start = sc.pos in
  while
    sc.pos < sc.stop
    &&
    match String.unsafe_get sc.src sc.pos with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    sc.pos <- sc.pos + 1
  done;
  match small_int sc.src start sc.pos with
  | Some i -> Int i
  | None -> (
    let tok = String.sub sc.src start (sc.pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail sc "bad number"))

let rec parse_value sc =
  skip_ws sc;
  if sc.pos >= sc.stop then fail sc "empty input";
  match String.unsafe_get sc.src sc.pos with
  | 'n' -> literal sc "null" Null
  | 't' -> literal sc "true" (Bool true)
  | 'f' -> literal sc "false" (Bool false)
  | '"' -> Str (parse_string sc)
  | '[' ->
    sc.pos <- sc.pos + 1;
    skip_ws sc;
    if at sc ']' then begin
      sc.pos <- sc.pos + 1;
      Arr []
    end
    else Arr (items sc [])
  | '{' ->
    sc.pos <- sc.pos + 1;
    skip_ws sc;
    if at sc '}' then begin
      sc.pos <- sc.pos + 1;
      Obj []
    end
    else Obj (fields sc [])
  | _ -> parse_number sc

and items sc acc =
  let v = parse_value sc in
  skip_ws sc;
  if at sc ',' then begin
    sc.pos <- sc.pos + 1;
    items sc (v :: acc)
  end
  else if at sc ']' then begin
    sc.pos <- sc.pos + 1;
    List.rev (v :: acc)
  end
  else fail sc "expected ',' or ']'"

and fields sc acc =
  skip_ws sc;
  let k = parse_string sc in
  skip_ws sc;
  expect sc ':';
  let kv = (k, parse_value sc) in
  skip_ws sc;
  if at sc ',' then begin
    sc.pos <- sc.pos + 1;
    fields sc (kv :: acc)
  end
  else if at sc '}' then begin
    sc.pos <- sc.pos + 1;
    List.rev (kv :: acc)
  end
  else fail sc "expected ',' or '}'"

let parse_slice src off len =
  if off < 0 || len < 0 || off > String.length src - len then
    invalid_arg "Json.parse_slice";
  let sc = { src; base = off; stop = off + len; pos = off } in
  match
    let v = parse_value sc in
    skip_ws sc;
    if sc.pos <> sc.stop then fail sc "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let parse s = parse_slice s 0 (String.length s)

let hex = "0123456789abcdef"

let escape b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\r' -> Buffer.add_string b "\\r"
  | '\t' -> Buffer.add_string b "\\t"
  | c ->
    Buffer.add_string b "\\u00";
    Buffer.add_char b hex.[Char.code c lsr 4];
    Buffer.add_char b hex.[Char.code c land 15]

(* Runs of bytes that need no escape are copied with one blit. *)
let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !run (i - !run);
      escape b c;
      run := i + 1
    end
  done;
  Buffer.add_substring b s !run (n - !run);
  Buffer.add_char b '"'

let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if f = 0.0 && Float.sign_bit f then Buffer.add_string b "-0.0"
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

(* [string_of_int]'s digits, written from the right into a scratch
   buffer on the non-positive side, where [min_int] has a magnitude. *)
let digits = Bytes.create 20

let add_int b i =
  if i >= 0 && i < 10 then Buffer.add_char b (Char.unsafe_chr (48 + i))
  else begin
    let k = ref 20 and n = ref (if i > 0 then -i else i) in
    while !n <> 0 do
      decr k;
      Bytes.unsafe_set digits !k (Char.unsafe_chr (48 - (!n mod 10)));
      n := !n / 10
    done;
    if i < 0 then Buffer.add_char b '-';
    Buffer.add_subbytes b digits !k (20 - !k)
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Str s -> add_string b s
  | Arr [] -> Buffer.add_string b "[]"
  | Arr (v :: rest) ->
    Buffer.add_char b '[';
    to_buffer b v;
    add_items b rest
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (kv :: rest) ->
    Buffer.add_char b '{';
    add_field b kv;
    add_fields b rest

and add_items b = function
  | [] -> Buffer.add_char b ']'
  | v :: rest ->
    Buffer.add_char b ',';
    to_buffer b v;
    add_items b rest

and add_field b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  to_buffer b v

and add_fields b = function
  | [] -> Buffer.add_char b '}'
  | kv :: rest ->
    Buffer.add_char b ',';
    add_field b kv;
    add_fields b rest

let to_string v =
  let b = Buffer.create 64 in
  to_buffer b v;
  Buffer.contents b

let mem key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str_mem key v = match mem key v with Some (Str s) -> Some s | _ -> None
let int_mem key v = match mem key v with Some (Int i) -> Some i | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
