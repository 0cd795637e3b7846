type result = {
  count : int;
  component : int array;
  members : int list array;
}

(* Iterative Tarjan over arrays: the DFS path, each node's next
   successor position and the component stack are int arrays, so the
   walk allocates only its result.  Components are emitted sinks-first,
   so an edge between distinct components always goes from a higher id
   to a lower id. *)
let compute_masked g ~alive =
  let n = Digraph.node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let next = Array.make n 0 in
  let path = Array.make n 0 and depth = ref 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let members = Array.make n [] in
  let next_index = ref 0 and count = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    path.(!depth) <- v;
    incr depth
  in
  for root = 0 to n - 1 do
    if alive root && index.(root) = -1 then begin
      enter root;
      while !depth > 0 do
        let v = path.(!depth - 1) in
        let k = next.(v) in
        if k < Digraph.out_degree g v then begin
          next.(v) <- k + 1;
          let w = Digraph.successor g v k in
          if not (alive w) then ()
          else if index.(w) = -1 then enter w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          (* v is done: maybe emit a component, propagate lowlink to
             the parent. *)
          decr depth;
          if lowlink.(v) = index.(v) then begin
            let c = !count in
            incr count;
            let ms = ref [] and popping = ref true in
            while !popping do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- c;
              ms := w :: !ms;
              if w = v then popping := false
            done;
            members.(c) <- !ms
          end;
          if !depth > 0 then begin
            let parent = path.(!depth - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  done;
  { count = !count; component = comp; members = Array.sub members 0 !count }

let compute g = compute_masked g ~alive:(fun _ -> true)

let condensation g r =
  let cg = Digraph.create r.count in
  Digraph.iter_edges
    (fun u v ->
      let cu = r.component.(u) and cv = r.component.(v) in
      if cu >= 0 && cv >= 0 && cu <> cv then Digraph.add_edge cg cu cv)
    g;
  cg

let is_trivial r =
  Array.for_all (fun ms -> match ms with [] | [ _ ] -> true | _ -> false)
    r.members
