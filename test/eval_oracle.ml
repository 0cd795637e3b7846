(* Reference semantics for conjunctive-query evaluation.  They live in
   the test suite so the compiled evaluator (Relational.Eval) is checked
   against code that shares none of its canonicalization, planning or
   execution:

   - [naive] enumerates the full cross product of every atom's tuples
     and keeps the consistent combinations.  Exponential: tiny
     instances only.
   - [greedy] is a backtracking join keyed by variable names that
     re-plans at every node, taking the cheapest remaining atom under
     the current valuation: a membership test when every argument is
     known, else the smallest index bucket over the known columns, else
     a scan.  Fast enough for the workload databases.

   Both return each distinct valuation once, sorted. *)

open Relational
module Binding = Eval.Binding

let relation db (a : Cq.atom) =
  match Database.relation_opt db a.rel with
  | None -> raise (Eval.Unknown_relation a.rel)
  | Some r ->
    let expected = Relation.arity r and got = Array.length a.args in
    if got <> expected then raise (Eval.Arity_mismatch (a.rel, got, expected));
    r

(* [b] extended so that the atom's arguments match tuple [t]. *)
let unify (args : Term.t array) (t : Tuple.t) b =
  let rec go b i =
    if i = Array.length args then Some b
    else
      match args.(i) with
      | Term.Const v -> if Value.equal v t.(i) then go b (i + 1) else None
      | Term.Var x -> (
        match Binding.find_opt x b with
        | Some v -> if Value.equal v t.(i) then go b (i + 1) else None
        | None -> go (Binding.add x t.(i) b) (i + 1))
  in
  go b 0

let distinct l = List.sort_uniq (Binding.compare Value.compare) l

let naive db (q : Cq.t) =
  let rec go b = function
    | [] -> [ b ]
    | (a : Cq.atom) :: rest ->
      Relation.fold
        (fun acc t ->
          match unify a.args t b with
          | None -> acc
          | Some b' -> acc @ go b' rest)
        [] (relation db a)
  in
  distinct (go Binding.empty q.atoms)

(* The cheapest access path for [a] under [b]: (estimated candidates,
   iterator over them). *)
let access db b (a : Cq.atom) =
  let r = relation db a in
  let known =
    Array.map
      (function Term.Const v -> Some v | Term.Var x -> Binding.find_opt x b)
      a.args
  in
  if Array.for_all Option.is_some known then begin
    let t = Array.map Option.get known in
    (0, fun f -> if Relation.mem r t then f t)
  end
  else begin
    let best = ref (Relation.cardinal r, fun f -> Relation.iter f r) in
    Array.iteri
      (fun col v ->
        match v with
        | None -> ()
        | Some v ->
          let n = Relation.count_matching r ~col v in
          if n < fst !best then
            best :=
              ( n,
                fun f ->
                  Relation.iter
                    (fun t -> if Value.equal t.(col) v then f t)
                    r ))
      known;
    !best
  end

let greedy db (q : Cq.t) =
  List.iter (fun a -> ignore (relation db a)) q.atoms;
  let out = ref [] in
  let rec go b = function
    | [] -> out := b :: !out
    | atoms ->
      let costed = List.mapi (fun i a -> (i, a, access db b a)) atoms in
      let pick, (a : Cq.atom), (_, iter) =
        List.fold_left
          (fun ((_, _, (c, _)) as best) ((_, _, (c', _)) as x) ->
            if c' < c then x else best)
          (List.hd costed) (List.tl costed)
      in
      let rest = List.filteri (fun i _ -> i <> pick) atoms in
      iter (fun t ->
          match unify a.args t b with Some b' -> go b' rest | None -> ())
  in
  go Binding.empty q.atoms;
  distinct !out
