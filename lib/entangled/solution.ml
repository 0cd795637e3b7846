open Relational

type t = {
  members : int list;
  assignment : Eval.valuation;
}

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | [ _ ] | [] -> true

let make ~members ~assignment =
  let members =
    if strictly_ascending members then members
    else List.sort_uniq Int.compare members
  in
  { members; assignment }

let size s = List.length s.members

type ground_atom = string * Value.t array

let ground_atom assignment (a : Cq.atom) : (ground_atom, string) result =
  let out = Array.make (Array.length a.args) (Value.Int 0) in
  let missing = ref None in
  Array.iteri
    (fun i t ->
      match t with
      | Term.Const v -> out.(i) <- v
      | Term.Var x -> (
        match Eval.Binding.find_opt x assignment with
        | Some v -> out.(i) <- v
        | None -> if !missing = None then missing := Some x))
    a.args;
  match !missing with
  | Some x -> Error (Printf.sprintf "variable %s unassigned" x)
  | None -> Ok (a.rel, out)

let validate db queries s =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  let n = Array.length queries in
  if s.members = [] then fail "empty coordinating set"
  else if List.exists (fun i -> i < 0 || i >= n) s.members then
    fail "member index out of range"
  else begin
    let member_queries = List.map (fun i -> (i, queries.(i))) s.members in
    (* (1) every variable assigned; collect ground atoms as we go. *)
    let collect atoms =
      List.fold_left
        (fun acc a ->
          match acc with
          | Error _ as e -> e
          | Ok gs -> (
            match ground_atom s.assignment a with
            | Error m -> Error m
            | Ok g -> Ok (g :: gs)))
        (Ok []) atoms
    in
    let all_posts = List.concat_map (fun (_, q) -> q.Query.post) member_queries in
    let all_heads = List.concat_map (fun (_, q) -> q.Query.head) member_queries in
    let all_bodies =
      List.concat_map (fun (_, q) -> q.Query.body.Cq.atoms) member_queries
    in
    match (collect all_posts, collect all_heads, collect all_bodies) with
    | Error m, _, _ | _, Error m, _ | _, _, Error m ->
      fail "condition (1) fails: %s" m
    | Ok posts, Ok heads, Ok bodies -> (
      (* (2) grounded bodies are in the instance. *)
      let check_body (rel, vals) =
        match Database.relation_opt db rel with
        | None -> Some (Printf.sprintf "body relation %s missing" rel)
        | Some r ->
          if Relation.mem r vals then None
          else
            Some
              (Format.asprintf "grounded body atom %s%a not in instance" rel
                 Tuple.pp vals)
      in
      match List.find_map check_body bodies with
      | Some m -> fail "condition (2) fails: %s" m
      | None -> (
        (* (3) grounded posts are a subset of grounded heads. *)
        let head_set = Hashtbl.create 32 in
        List.iter (fun (rel, vals) -> Hashtbl.replace head_set (rel, vals) ())
          heads;
        let missing =
          List.find_opt
            (fun (rel, vals) -> not (Hashtbl.mem head_set (rel, vals)))
            posts
        in
        match missing with
        | Some (rel, vals) ->
          fail "condition (3) fails: postcondition %s%a not among heads" rel
            Tuple.pp vals
        | None -> Ok ()))
  end

let member_names queries s = List.map (fun i -> queries.(i).Query.name) s.members

let pp queries ppf s =
  Format.fprintf ppf "@[<v>coordinating set {%s}@,assignment: %a@]"
    (String.concat ", " (member_names queries s))
    Eval.pp_valuation s.assignment
