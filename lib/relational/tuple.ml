type t = Value.t array

let make vs = Array.of_list vs

let arity = Array.length

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.get: index %d of arity %d" i (arity t));
  t.(i)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i = la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string t)))

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
module Hashtbl = Stdlib.Hashtbl.Make (Hashed)
