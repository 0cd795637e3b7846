type t = {
  mutable parent : int array;
  mutable rank : int array;
  mutable length : int;  (* valid ids are 0 .. length - 1 *)
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { parent = Array.make capacity 0; rank = Array.make capacity 0; length = 0 }

let cardinal t = t.length

let grow t wanted =
  let cap = Array.length t.parent in
  if wanted > cap then begin
    let cap' = ref (max 1 cap) in
    while !cap' < wanted do
      cap' := 2 * !cap'
    done;
    let parent = Array.make !cap' 0 in
    let rank = Array.make !cap' 0 in
    Array.blit t.parent 0 parent 0 t.length;
    Array.blit t.rank 0 rank 0 t.length;
    t.parent <- parent;
    t.rank <- rank
  end

let ensure t id =
  if id < 0 then invalid_arg "Union_find.ensure: negative id";
  if id >= t.length then begin
    grow t (id + 1);
    for i = t.length to id do
      t.parent.(i) <- i;
      t.rank.(i) <- 0
    done;
    t.length <- id + 1
  end

let check t id =
  if id < 0 || id >= t.length then
    invalid_arg (Printf.sprintf "Union_find: id %d not ensured" id)

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
