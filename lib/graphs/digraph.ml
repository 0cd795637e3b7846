(* Adjacency as growable per-node arrays in insertion order: iterating a
   node's successors allocates nothing, and an edge costs one slot each
   way.  Parallel edges are caught by a scan of the source's
   successors while every out-degree stays small, and by an edge table
   built the first time one grows past [scan_degree]. *)
type t = {
  n : int;
  succ : int array array;  (* the first [out.(u)] slots of [succ.(u)] *)
  out : int array;
  pred : int array array;  (* the first [inn.(v)] slots of [pred.(v)] *)
  inn : int array;
  mutable edge_set : (int * int, unit) Hashtbl.t option;
  mutable edge_count : int;
}

let scan_degree = 16

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  {
    n;
    succ = Array.make n [||];
    out = Array.make n 0;
    pred = Array.make n [||];
    inn = Array.make n 0;
    edge_set = None;
    edge_count = 0;
  }

let node_count g = g.n

let edge_count g = g.edge_count

let check_node g u =
  if u < 0 || u >= g.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of [0,%d)" u g.n)

let rec scan adj v i = i >= 0 && (adj.(i) = v || scan adj v (i - 1))

let has_edge g u v =
  match g.edge_set with
  | Some set -> Hashtbl.mem set (u, v)
  | None -> scan g.succ.(u) v (g.out.(u) - 1)

let mem_edge g u v =
  check_node g u;
  check_node g v;
  has_edge g u v

let push adj deg u v =
  let a = adj.(u) and k = deg.(u) in
  let a =
    if k < Array.length a then a
    else begin
      let b = Array.make (max 2 (2 * k)) 0 in
      Array.blit a 0 b 0 k;
      adj.(u) <- b;
      b
    end
  in
  a.(k) <- v;
  deg.(u) <- k + 1

let add_edge g u v =
  check_node g u;
  check_node g v;
  if not (has_edge g u v) then begin
    push g.succ g.out u v;
    push g.pred g.inn v u;
    g.edge_count <- g.edge_count + 1;
    match g.edge_set with
    | Some set -> Hashtbl.replace set (u, v) ()
    | None ->
      if g.out.(u) > scan_degree then begin
        let set = Hashtbl.create (2 * g.edge_count) in
        for x = 0 to g.n - 1 do
          for i = 0 to g.out.(x) - 1 do
            Hashtbl.replace set (x, g.succ.(x).(i)) ()
          done
        done;
        g.edge_set <- Some set
      end
  end

let to_list adj k =
  let rec go i acc = if i < 0 then acc else go (i - 1) (adj.(i) :: acc) in
  go (k - 1) []

let successors g u =
  check_node g u;
  to_list g.succ.(u) g.out.(u)

let successor g u i =
  check_node g u;
  if i < 0 || i >= g.out.(u) then invalid_arg "Digraph.successor";
  g.succ.(u).(i)

let predecessors g v =
  check_node g v;
  to_list g.pred.(v) g.inn.(v)

let out_degree g u =
  check_node g u;
  g.out.(u)

let in_degree g v =
  check_node g v;
  g.inn.(v)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    let adj = g.succ.(u) in
    for i = 0 to g.out.(u) - 1 do
      f u adj.(i)
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let nodes g = List.init g.n Fun.id

let transpose g =
  let t = create g.n in
  iter_edges (fun u v -> add_edge t v u) g;
  t

let induced_subgraph g ~keep =
  let s = create g.n in
  iter_edges (fun u v -> if keep u && keep v then add_edge s u v) g;
  s

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let equal a b =
  a.n = b.n && a.edge_count = b.edge_count
  &&
  let same = ref true in
  iter_edges (fun u v -> if not (has_edge b u v) then same := false) a;
  !same

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges" g.n g.edge_count;
  iter_edges (fun u v -> Format.fprintf ppf "@,  %d -> %d" u v) g;
  Format.fprintf ppf "@]"
