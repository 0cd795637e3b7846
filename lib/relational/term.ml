type t =
  | Var of string
  | Const of Value.t

let var x = Var x
let const v = Const v
let int n = Const (Value.Int n)
let str s = Const (Value.Str s)

let is_const = function Const _ -> true | Var _ -> false

let compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Const u, Const v -> Value.compare u v
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Var x -> Format.pp_print_string ppf x
  | Const v -> Value.pp ppf v

let rename f = function Var x -> Var (f x) | Const _ as t -> t

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
