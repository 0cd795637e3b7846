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

  (* Buckets by relation symbol, and the last one found: a workload
     has a handful of answer relations, often one, so most lookups
     compare one string and hash none. *)
  type 'a t = {
    rels : (string, 'a bucket) Hashtbl.t;
    mutable last_rel : string;
    mutable last : 'a bucket option;
  }

  let create () : 'a t = { rels = Hashtbl.create 16; last_rel = ""; last = None }

  (* Options rather than [Not_found]: a raise costs more than the
     allocation of a [Some] here, and misses are common (a probe for a
     partner not yet pooled). *)
  let find (t : 'a t) rel =
    match t.last with
    | Some _ as last when String.equal t.last_rel rel -> last
    | _ -> (
      match Hashtbl.find_opt t.rels rel with
      | Some _ as found ->
        t.last_rel <- rel;
        t.last <- found;
        found
      | None -> None)

  let first_term (a : Cq.atom) =
    if Array.length a.args = 0 then Term.Var "" else a.args.(0)

  let add (t : 'a t) (a : Cq.atom) payload =
    let bucket =
      match find t a.rel with
      | Some b -> b
      | None ->
        let b = { by_first_const = Value.Hashtbl.create 16; var_first = [] } in
        Hashtbl.add t.rels a.rel b;
        b
    in
    let entry = (a, payload) in
    match first_term a with
    | Term.Const v ->
      let l =
        match Value.Hashtbl.find_opt bucket.by_first_const v with
        | Some l -> l
        | None -> []
      in
      Value.Hashtbl.replace bucket.by_first_const v (entry :: l)
    | Term.Var _ -> bucket.var_first <- entry :: bucket.var_first

  (* The entries whose payload [pred] does not hold. *)
  let rec drop pred = function
    | [] -> []
    | ((_, payload) as entry) :: rest ->
      if pred payload then drop pred rest else entry :: drop pred rest

  let remove (t : 'a t) (a : Cq.atom) pred =
    match find t a.rel with
    | None -> ()
    | Some bucket -> (
      match first_term a with
      | Term.Const v -> (
        match Value.Hashtbl.find_opt bucket.by_first_const v with
        | None -> ()
        | Some l -> (
          (* An emptied key goes: constants are per-request (fresh
             partner names), so keeping it would grow the table with
             requests served rather than with the live pool. *)
          match drop pred l with
          | [] -> Value.Hashtbl.remove bucket.by_first_const v
          | l -> Value.Hashtbl.replace bucket.by_first_const v l))
      | Term.Var _ -> bucket.var_first <- drop pred bucket.var_first)

  let key_count (t : 'a t) =
    Hashtbl.fold
      (fun _ bucket n -> n + Value.Hashtbl.length bucket.by_first_const)
      t.rels 0

  let iter (t : 'a t) (p : Cq.atom) f =
    match find t p.rel with
    | None -> ()
    | Some bucket -> (
      let visit (a, payload) = if compatible p a then f payload in
      match first_term p with
      | Term.Const v ->
        (match Value.Hashtbl.find_opt bucket.by_first_const v with
        | Some l -> List.iter visit l
        | None -> ());
        List.iter visit bucket.var_first
      | Term.Var _ ->
        Value.Hashtbl.iter (fun _ l -> List.iter visit l) bucket.by_first_const;
        List.iter visit bucket.var_first)
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

let rec sorted = function
  | a :: (b :: _ as rest) -> compare_edge a b <= 0 && sorted rest
  | [ _ ] | [] -> true

(* Add [src]'s edges to the heads of one postcondition, last first:
   the order an index probe yields one bucket. *)
let rec add_rev graph src = function
  | [] -> ()
  | (dst, _) :: rest ->
    add_rev graph src rest;
    Graphs.Digraph.add_edge graph src dst

let of_edges queries edges =
  (* Deterministic edge order: by (src, post_index, dst, head_index). *)
  let extended = if sorted edges then edges else List.sort compare_edge edges in
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
  Array.iteri (fun src posts -> Array.iter (add_rev graph src) posts) targets;
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
          Atom_index.iter heads p (fun (j, hi) ->
              edges :=
                { src = i; post_index = pi; dst = j; head_index = hi }
                :: !edges))
        q.Query.post)
    queries;
  of_edges queries !edges

let post_targets g ~src ~post_index = g.targets.(src).(post_index)

(* A worklist greatest fixpoint: [live] counts, per (src, post), the
   edges into live queries; each query that dies walks its incoming
   edges once, so the whole pass is O(E) however long the chain of
   consecutive deaths (a pending k-chain would take k rescans).  The
   counts sit in one flat array, [first.(q)] the slot of [q]'s post 0,
   and the incoming edges in one array grouped by destination. *)
let prune_unsatisfiable g ~alive =
  let n = Array.length g.queries in
  if Array.length alive <> n then
    invalid_arg "Coordination_graph.prune_unsatisfiable: mask size mismatch";
  let first = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    first.(q + 1) <- first.(q) + Array.length g.targets.(q)
  done;
  let live = Array.make first.(n) 0 in
  let in_first = Array.make (n + 1) 0 in
  List.iter
    (fun e ->
      if alive.(e.dst) then begin
        let k = first.(e.src) + e.post_index in
        live.(k) <- live.(k) + 1
      end;
      in_first.(e.dst + 1) <- in_first.(e.dst + 1) + 1)
    g.extended;
  for q = 0 to n - 1 do
    in_first.(q + 1) <- in_first.(q + 1) + in_first.(q)
  done;
  let incoming = Array.make in_first.(n) 0 in
  let fill = Array.sub in_first 0 n in
  List.iter
    (fun e ->
      incoming.(fill.(e.dst)) <- first.(e.src) + e.post_index;
      fill.(e.dst) <- fill.(e.dst) + 1)
    g.extended;
  (* The query owning post slot [k]. *)
  let rec owner k lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if first.(mid) <= k then owner k mid hi else owner k lo mid
  in
  let dead = Array.make n 0 and top = ref 0 in
  let kill q =
    alive.(q) <- false;
    dead.(!top) <- q;
    incr top
  in
  for q = 0 to n - 1 do
    if alive.(q) then begin
      let starved = ref false in
      for k = first.(q) to first.(q + 1) - 1 do
        if live.(k) = 0 then starved := true
      done;
      if !starved then kill q
    end
  done;
  while !top > 0 do
    decr top;
    let d = dead.(!top) in
    for i = in_first.(d) to in_first.(d + 1) - 1 do
      let k = incoming.(i) in
      live.(k) <- live.(k) - 1;
      if live.(k) = 0 then begin
        let src = owner k 0 n in
        if alive.(src) then kill src
      end
    done
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
