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

let build queries =
  let n = Array.length queries in
  let heads = Atom_index.create () in
  Array.iteri
    (fun j q ->
      List.iteri (fun hi (h : Cq.atom) -> Atom_index.add heads h (j, hi)) q.Query.head)
    queries;
  let graph = Graphs.Digraph.create n in
  let extended = ref [] in
  Array.iteri
    (fun i q ->
      List.iteri
        (fun pi (p : Cq.atom) ->
          List.iter
            (fun (_, (j, hi)) ->
              extended :=
                { src = i; post_index = pi; dst = j; head_index = hi }
                :: !extended;
              Graphs.Digraph.add_edge graph i j)
            (Atom_index.probe heads p))
        q.Query.post)
    queries;
  (* Deterministic edge order: by (src, post_index, dst, head_index). *)
  let extended = List.sort compare !extended in
  { queries; extended; graph }

let post_targets g ~src ~post_index =
  List.filter_map
    (fun e ->
      if e.src = src && e.post_index = post_index then Some (e.dst, e.head_index)
      else None)
    g.extended

let post_count g =
  Array.fold_left (fun acc q -> acc + List.length q.Query.post) 0 g.queries

let prune_unsatisfiable g ~alive =
  let n = Array.length g.queries in
  if Array.length alive <> n then
    invalid_arg "Coordination_graph.prune_unsatisfiable: mask size mismatch";
  (* For each (src, post_index), the list of candidate dst queries. *)
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.src, e.post_index) in
      let l = Option.value ~default:[] (Hashtbl.find_opt candidates key) in
      Hashtbl.replace candidates key (e.dst :: l))
    g.extended;
  let has_live_candidate src post_index =
    match Hashtbl.find_opt candidates (src, post_index) with
    | None -> false
    | Some ds -> List.exists (fun d -> alive.(d)) ds
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i q ->
        if alive.(i) then
          List.iteri
            (fun pi (_ : Cq.atom) ->
              if alive.(i) && not (has_live_candidate i pi) then begin
                alive.(i) <- false;
                changed := true
              end)
            q.Query.post)
      g.queries
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
