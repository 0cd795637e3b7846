type t = { parent : int array; rank : int array }

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  { parent = Array.init n Fun.id; rank = Array.make n 0 }

let check t id =
  if id < 0 || id >= Array.length t.parent then
    invalid_arg (Printf.sprintf "Union_find: id %d out of range" id)

(* Iterative find with path halving: every node on the walk is pointed
   at its grandparent, so chains shorten without a second pass and
   without recursion (components can be pool-sized). *)
let find t id =
  check t id;
  let i = ref id in
  while t.parent.(!i) <> !i do
    let p = t.parent.(!i) in
    t.parent.(!i) <- t.parent.(p);
    i := t.parent.(!i)
  done;
  !i

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    let ra, rb =
      if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb)
    in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    ra
  end

let same t a b = find t a = find t b
