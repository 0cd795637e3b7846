type t =
  | Int of int
  | Str of string
  | Bool of bool

let constructor_rank = function Int _ -> 0 | Str _ -> 1 | Bool _ -> 2

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | Str _ | Bool _), _ ->
    Int.compare (constructor_rank a) (constructor_rank b)

let equal a b = a == b || compare a b = 0

(* Per-constructor salts keep [Int 1], [Str "1"] and [Bool true] apart
   without building an intermediate pair for [Stdlib.Hashtbl.hash] to
   consume — hashing a tuple literal allocates it, and [hash] sits on
   every index lookup and tuple-membership test. *)
let hash = function
  | Int x -> Stdlib.Hashtbl.hash x lxor 0x2545f491
  | Str s -> Stdlib.Hashtbl.hash s lxor 0x27220a95
  | Bool b -> Stdlib.Hashtbl.hash b lxor 0x165667b1

let is_identifier s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  &&
  let ok = ref true in
  String.iter
    (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> () | _ -> ok := false)
    s;
  !ok

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Bool b -> Format.pp_print_bool ppf b
  | Str s ->
    if is_identifier s then Format.pp_print_string ppf s
    else Format.fprintf ppf "'%s'" s

let to_string v = Format.asprintf "%a" pp v

let int x = Int x
let str s = Str s
let bool b = Bool b

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
module Hashtbl = Stdlib.Hashtbl.Make (Hashed)
