(* Reference join order for [Plan.compile]: the greedy search it was
   first written as, which re-assesses every unplaced atom at every
   stage (O(k^2) for a k-atom body).  [Plan.compile] keeps per-atom
   bound-column counts and an ordered set instead; test_plan checks that
   both choose the same steps, access paths and estimates.

   [render db body] prints the plan the way [Plan.pp] does, and
   [estimates db body] lists the per-step row estimates.

   [canonicalize] is the string key and binding the plan cache was
   once keyed by, built with a fresh table and buffer per call: equal
   keys iff equal [Plan.canonicalize] shapes, and [Plan.key] renders the
   same string. *)

open Relational

type arg = Slot of int | Param of int

type access =
  | Membership
  | Index_one of int * arg
  | Index_adaptive of (int * arg) list
  | Full_scan

(* Slots in order of first occurrence, parameters in order. *)
let shape (body : Cq.t) =
  let slots = Hashtbl.create 16 and nparams = ref 0 in
  List.map
    (fun (a : Cq.atom) ->
      ( a.rel,
        Array.map
          (function
            | Term.Const _ ->
              incr nparams;
              Param (!nparams - 1)
            | Term.Var x -> (
              match Hashtbl.find_opt slots x with
              | Some s -> Slot s
              | None ->
                let s = Hashtbl.length slots in
                Hashtbl.add slots x s;
                Slot s))
          a.args ))
    body.atoms
  |> Array.of_list

let canonicalize (body : Cq.t) =
  let slots = Hashtbl.create 16 and names = ref [] and params = ref [] in
  let buf = Buffer.create 64 in
  List.iter
    (fun (a : Cq.atom) ->
      Buffer.add_string buf a.rel;
      Buffer.add_char buf '(';
      Array.iter
        (function
          | Term.Const v ->
            params := v :: !params;
            Buffer.add_string buf "p,"
          | Term.Var x ->
            let s =
              match Hashtbl.find_opt slots x with
              | Some s -> s
              | None ->
                let s = Hashtbl.length slots in
                Hashtbl.add slots x s;
                names := x :: !names;
                s
            in
            Buffer.add_string buf (Printf.sprintf "s%d," s))
        a.args;
      Buffer.add_string buf ");")
    body.atoms;
  ( Buffer.contents buf,
    {
      Plan.params = Array.of_list (List.rev !params);
      var_names = Array.of_list (List.rev !names);
    } )

let plan db body =
  let atoms = shape body in
  let rels = Array.map (fun (rel, _) -> Database.relation db rel) atoms in
  let n = Array.length atoms in
  let bound = Hashtbl.create 16 in
  let is_bound s = Hashtbl.mem bound s in
  let placed = Array.make n false in
  let assess i =
    let _, args = atoms.(i) in
    let total = Array.length args in
    let bound_cols = ref 0 and has_param = ref false in
    Array.iter
      (function
        | Param _ ->
          incr bound_cols;
          has_param := true
        | Slot s -> if is_bound s then incr bound_cols)
      args;
    let card = Relation.cardinal rels.(i) in
    if !bound_cols = total then (0, 0)
    else if !bound_cols > 0 then ((if !has_param then 1 else 2), card)
    else (3, card)
  in
  List.init n (fun _ ->
      let best = ref None in
      for i = n - 1 downto 0 do
        if not placed.(i) then begin
          let w = assess i in
          match !best with
          | Some (bw, _) when bw <= w -> ()
          | _ -> best := Some (w, i)
        end
      done;
      let i = match !best with Some (_, i) -> i | None -> assert false in
      placed.(i) <- true;
      let rel, args = atoms.(i) in
      let candidates =
        List.filter
          (fun (_, a) -> match a with Param _ -> true | Slot s -> is_bound s)
          (List.mapi (fun c a -> (c, a)) (Array.to_list args))
      in
      let access =
        if List.length candidates = Array.length args then Membership
        else
          match candidates with
          | [] -> Full_scan
          | [ (c, a) ] -> Index_one (c, a)
          | many -> Index_adaptive many
      in
      Array.iter (function Slot s -> Hashtbl.replace bound s () | Param _ -> ()) args;
      let est =
        match access with
        | Membership -> 1
        | Index_one (c, _) -> Relation.estimate_bucket rels.(i) ~col:c
        | Index_adaptive cols ->
          List.fold_left
            (fun acc (c, _) -> min acc (Relation.estimate_bucket rels.(i) ~col:c))
            max_int cols
        | Full_scan -> Relation.cardinal rels.(i)
      in
      (rel, args, access, est))

let pp_arg ppf = function
  | Slot s -> Format.fprintf ppf "s%d" s
  | Param j -> Format.fprintf ppf "p%d" j

let render db body =
  let ppf_steps ppf steps =
    List.iteri
      (fun i (rel, args, access, _) ->
        Format.fprintf ppf "@,%d. %s(%s) via %s" (i + 1) rel
          (String.concat ", "
             (Array.to_list (Array.map (Format.asprintf "%a" pp_arg) args)))
          (match access with
          | Membership -> "membership"
          | Index_one (c, a) -> Format.asprintf "index col %d = %a" c pp_arg a
          | Index_adaptive cols ->
            Format.asprintf "adaptive index over cols {%s}"
              (String.concat ", " (List.map (fun (c, _) -> string_of_int c) cols))
          | Full_scan -> "scan"))
      steps
  in
  Format.asprintf "@[<v>plan %s%a@]" (Plan.key body) ppf_steps (plan db body)

let estimates db body = List.map (fun (_, _, _, est) -> est) (plan db body)
