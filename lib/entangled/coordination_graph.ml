open Relational

type edge = {
  src : int;
  post_index : int;
  dst : int;
  head_index : int;
}

type t = {
  queries : Query.t array;
  extended : edge list;
  graph : Graphs.Digraph.t;
  targets : (int * int) list array array;
}

let compatible (a : Cq.atom) (b : Cq.atom) =
  a.rel = b.rel
  && Array.length a.args = Array.length b.args
  &&
  let n = Array.length a.args in
  let rec loop i =
    i = n
    ||
    match (a.args.(i), b.args.(i)) with
    | Term.Const u, Term.Const v -> Value.equal u v && loop (i + 1)
    | (Term.Var _, _ | _, Term.Var _) -> loop (i + 1)
  in
  loop 0

(* Atoms are bucketed two levels deep: by relation symbol, then by the
   constant in their first argument position (atoms whose first argument
   is a variable go into a separate wildcard list).  Real workloads name
   the coordination partner in the first position — R(user, x) — so a
   probe atom with a constant there only ever scans the handful of
   stored atoms that could match, making graph construction near-linear
   instead of quadratic (the quantity Figure 6 measures) and giving the
   online engine O(candidates) incremental edge discovery per arrival. *)
module Atom_index = struct
  type 'a bucket = {
    by_first_const : (Cq.atom * 'a) list Value.Hashtbl.t;
    mutable var_first : (Cq.atom * 'a) list;
  }

  type 'a t = (string, 'a bucket) Hashtbl.t

  let create () : 'a t = Hashtbl.create 16

  let first_term (a : Cq.atom) =
    if Array.length a.args = 0 then Term.Var "" else a.args.(0)

  let add (t : 'a t) (a : Cq.atom) payload =
    let bucket =
      match Hashtbl.find_opt t a.rel with
      | Some b -> b
      | None ->
        let b = { by_first_const = Value.Hashtbl.create 16; var_first = [] } in
        Hashtbl.add t a.rel b;
        b
    in
    let entry = (a, payload) in
    match first_term a with
    | Term.Const v ->
      let l =
        Option.value ~default:[] (Value.Hashtbl.find_opt bucket.by_first_const v)
      in
      Value.Hashtbl.replace bucket.by_first_const v (entry :: l)
    | Term.Var _ -> bucket.var_first <- entry :: bucket.var_first

  let remove (t : 'a t) (a : Cq.atom) pred =
    match Hashtbl.find_opt t a.rel with
    | None -> ()
    | Some bucket -> (
      let keep (_, payload) = not (pred payload) in
      match first_term a with
      | Term.Const v -> (
        match Value.Hashtbl.find_opt bucket.by_first_const v with
        | None -> ()
        | Some l -> (
          (* An emptied key goes: constants are per-request (fresh
             partner names), so keeping it would grow the table with
             requests served rather than with the live pool. *)
          match List.filter keep l with
          | [] -> Value.Hashtbl.remove bucket.by_first_const v
          | l -> Value.Hashtbl.replace bucket.by_first_const v l))
      | Term.Var _ -> bucket.var_first <- List.filter keep bucket.var_first)

  let key_count (t : 'a t) =
    Hashtbl.fold
      (fun _ bucket n -> n + Value.Hashtbl.length bucket.by_first_const)
      t 0

  let probe (t : 'a t) (p : Cq.atom) =
    match Hashtbl.find_opt t p.rel with
    | None -> []
    | Some bucket ->
      let candidates =
        match first_term p with
        | Term.Const v ->
          Option.value ~default:[]
            (Value.Hashtbl.find_opt bucket.by_first_const v)
          @ bucket.var_first
        | Term.Var _ ->
          Value.Hashtbl.fold
            (fun _ l acc -> l @ acc)
            bucket.by_first_const bucket.var_first
      in
      List.filter (fun (a, _) -> compatible p a) candidates
end

(* Field by field: polymorphic [compare] on the record costs as much as
   the rest of the assembly. *)
let compare_edge a b =
  let c = Int.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Int.compare a.post_index b.post_index in
    if c <> 0 then c
    else
      let c = Int.compare a.dst b.dst in
      if c <> 0 then c else Int.compare a.head_index b.head_index

let of_edges queries edges =
  (* Deterministic edge order: by (src, post_index, dst, head_index). *)
  let extended = List.sort compare_edge edges in
  let targets =
    Array.map (fun q -> Array.make (List.length q.Query.post) []) queries
  in
  List.iter
    (fun e ->
      targets.(e.src).(e.post_index) <-
        (e.dst, e.head_index) :: targets.(e.src).(e.post_index))
    (List.rev extended);
  (* The collapsed adjacency lists each postcondition's heads highest
     index first, the order an index probe yields one bucket.  It is a
     function of the edge set alone, so a graph assembled from stored
     edges condenses (and numbers its SCCs) exactly like a rebuilt
     one. *)
  let graph = Graphs.Digraph.create (Array.length queries) in
  Array.iteri
    (fun src posts ->
      Array.iter
        (fun ts ->
          List.iter
            (fun (dst, _) -> Graphs.Digraph.add_edge graph src dst)
            (List.rev ts))
        posts)
    targets;
  { queries; extended; graph; targets }

let build queries =
  let heads = Atom_index.create () in
  Array.iteri
    (fun j q ->
      List.iteri (fun hi (h : Cq.atom) -> Atom_index.add heads h (j, hi)) q.Query.head)
    queries;
  let edges = ref [] in
  Array.iteri
    (fun i q ->
      List.iteri
        (fun pi (p : Cq.atom) ->
          List.iter
            (fun (_, (j, hi)) ->
              edges :=
                { src = i; post_index = pi; dst = j; head_index = hi }
                :: !edges)
            (Atom_index.probe heads p))
        q.Query.post)
    queries;
  of_edges queries !edges

let post_targets g ~src ~post_index = g.targets.(src).(post_index)

let post_count g =
  Array.fold_left (fun acc q -> acc + List.length q.Query.post) 0 g.queries

(* A worklist greatest fixpoint: [live] counts, per (src, post), the
   edges into live queries; each query that dies walks its incoming
   edges once, so the whole pass is O(E) however long the chain of
   consecutive deaths (a pending k-chain would take k rescans). *)
let prune_unsatisfiable g ~alive =
  let n = Array.length g.queries in
  if Array.length alive <> n then
    invalid_arg "Coordination_graph.prune_unsatisfiable: mask size mismatch";
  let live_targets =
    List.fold_left (fun k (d, _) -> if alive.(d) then k + 1 else k) 0
  in
  let live = Array.map (Array.map live_targets) g.targets in
  let incoming = Array.make n [] in
  List.iter (fun e -> incoming.(e.dst) <- e :: incoming.(e.dst)) g.extended;
  let dead = Stack.create () in
  let kill q =
    alive.(q) <- false;
    Stack.push q dead
  in
  Array.iteri
    (fun q posts -> if alive.(q) && Array.mem 0 posts then kill q)
    live;
  while not (Stack.is_empty dead) do
    List.iter
      (fun e ->
        let k = live.(e.src).(e.post_index) - 1 in
        live.(e.src).(e.post_index) <- k;
        if k = 0 && alive.(e.src) then kill e.src)
      incoming.(Stack.pop dead)
  done

let pp ppf g =
  Format.fprintf ppf "@[<v>coordination graph over %d queries"
    (Array.length g.queries);
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  (%s, post %d) -> (%s, head %d)"
        g.queries.(e.src).Query.name e.post_index g.queries.(e.dst).Query.name
        e.head_index)
    g.extended;
  Format.fprintf ppf "@]"
