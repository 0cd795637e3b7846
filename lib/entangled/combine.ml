open Relational

type failure =
  | Unsatisfiable_post of int * int
  | Ambiguous_post of int * int * int
  | Clash of int * int

let pp_failure queries ppf f =
  let name i = queries.(i).Query.name in
  match f with
  | Unsatisfiable_post (q, pi) ->
    Format.fprintf ppf "postcondition %d of %s has no candidate head" pi
      (name q)
  | Ambiguous_post (q, pi, k) ->
    Format.fprintf ppf "postcondition %d of %s has %d candidate heads" pi
      (name q) k
  | Clash (q, pi) ->
    Format.fprintf ppf "unifying postcondition %d of %s clashed" pi (name q)

(* One reused scratch holds the layout of the graph last loaded and the
   unifier over it.  Member [i]'s variable [j] (first-occurrence order
   over post, head, body) is slot [offsets.(i) + j], named
   [names.(slot)]; every argument of member [i]'s atoms, from
   [codes.(post_at.(i))] on, is coded by its slot or [-1] for a
   constant.  A slot whose [stamp] is not [gen] is its own class, so a
   fresh unifier costs an increment; [trail] lists the roots a union
   ([r]) or a binding ([-r - 1]) changed.  The body last built names
   root [r] plan slot [pslot.(r)] when [pstamp.(r) = bgen], the
   variable [pnames.(k)] in it. *)
type t = {
  mutable queries : Query.t array;
  mutable offsets : int array;
  mutable post_at : int array;
  mutable codes : int array;
  mutable names : string array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable cval : Value.t option array;
  mutable tag : int array;
  mutable gen : int;
  mutable trail : int array;
  mutable ntrail : int;
  mutable pslot : int array;
  mutable pstamp : int array;
  mutable pnames : string array;
  mutable npslots : int;
  mutable bgen : int;
}

let sc =
  {
    queries = [||];
    offsets = [| 0 |];
    post_at = [||];
    codes = [||];
    names = [||];
    parent = [||];
    stamp = [||];
    cval = [||];
    tag = [||];
    gen = 0;
    trail = [||];
    ntrail = 0;
    pslot = [||];
    pstamp = [||];
    pnames = [||];
    npslots = 0;
    bgen = 0;
  }

let fit a n fill =
  if Array.length a >= n then a
  else Array.append a (Array.make (max n (Array.length a)) fill)

let rec local base n x i =
  if i = n then -1
  else
    let y = Array.unsafe_get sc.names (base + i) in
    if y == x || String.equal y x then i else local base n x (i + 1)

(* Code the arguments of a member's atoms from [!ck] on, numbering its
   variables from slot [base]: [!cn] of them so far. *)
let ck = ref 0
let cn = ref 0

let rec number base = function
  | [] -> ()
  | (a : Cq.atom) :: rest ->
    let args = a.args in
    let n = Array.length args and k = !ck in
    if k + n > Array.length sc.codes then sc.codes <- fit sc.codes (k + n) 0;
    let codes = sc.codes in
    for p = 0 to n - 1 do
      codes.(k + p) <-
        (match args.(p) with
        | Term.Const _ -> -1
        | Term.Var x -> (
          let c = !cn in
          match local base c x 0 with
          | -1 ->
            if base + c >= Array.length sc.names then
              sc.names <- fit sc.names (base + c + 1) "";
            sc.names.(base + c) <- x;
            cn := c + 1;
            base + c
          | j -> base + j))
    done;
    ck := k + n;
    number base rest

let layout (g : Coordination_graph.t) =
  let queries = g.queries in
  if sc.queries != queries then begin
    let n = Array.length queries in
    sc.offsets <- fit sc.offsets (n + 1) 0;
    sc.post_at <- fit sc.post_at n 0;
    ck := 0;
    for i = 0 to n - 1 do
      let q = queries.(i) and base = sc.offsets.(i) in
      sc.post_at.(i) <- !ck;
      cn := 0;
      number base q.post;
      number base q.head;
      number base q.body.atoms;
      sc.offsets.(i + 1) <- base + !cn
    done;
    let total = sc.offsets.(n) in
    sc.parent <- fit sc.parent total 0;
    sc.stamp <- fit sc.stamp total 0;
    sc.cval <- fit sc.cval total None;
    sc.tag <- fit sc.tag total 0;
    sc.pslot <- fit sc.pslot total 0;
    sc.pstamp <- fit sc.pstamp total 0;
    sc.queries <- queries
  end;
  sc

let start g =
  let t = layout g in
  t.gen <- t.gen + 1;
  t.ntrail <- 0;
  t

let offset t m = t.offsets.(m)
let code t i = t.codes.(i)

(* Where atom [k] of a section of atoms coded from [at] starts. *)
let rec skip at k = function
  | (a : Cq.atom) :: rest when k > 0 ->
    skip (at + Array.length a.args) (k - 1) rest
  | _ -> at

let head_code t m hi =
  let q = t.queries.(m) in
  skip (skip t.post_at.(m) max_int q.post) hi q.head

let body_code t m = head_code t m max_int

(* ------------------------------------------------------------------ *)
(* The union-find                                                     *)
(* ------------------------------------------------------------------ *)

let touch t s =
  if t.stamp.(s) <> t.gen then begin
    t.stamp.(s) <- t.gen;
    t.parent.(s) <- s;
    t.cval.(s) <- None;
    t.tag.(s) <- -1
  end

let rec find t s =
  let p = t.parent.(s) in
  if t.stamp.(s) <> t.gen || p = s then s else find t p

let value t r = if t.stamp.(r) = t.gen then t.cval.(r) else None

let push t x =
  t.trail <- fit t.trail (t.ntrail + 1) 0;
  t.trail.(t.ntrail) <- x;
  t.ntrail <- t.ntrail + 1

let set t r v =
  touch t r;
  t.cval.(r) <- Some v;
  push t (-r - 1)

let bind t s v =
  let r = find t s in
  match value t r with
  | Some u -> Value.equal u v
  | None ->
    set t r v;
    true

let union t a b =
  let ra = find t a and rb = find t b in
  ra = rb
  ||
  match (value t ra, value t rb) with
  | Some u, Some v -> Value.equal u v
  | va, vb ->
    touch t ra;
    touch t rb;
    t.parent.(ra) <- rb;
    push t ra;
    (match (va, vb) with Some u, None -> set t rb u | _ -> ());
    true

type mark = int

let mark t = t.ntrail

let undo t m =
  for i = t.ntrail - 1 downto m do
    let x = t.trail.(i) in
    if x >= 0 then t.parent.(x) <- x else t.cval.(-x - 1) <- None
  done;
  t.ntrail <- m

let tag t r = if t.stamp.(r) = t.gen then t.tag.(r) else -1

let link t y v =
  let r = find t y in
  let k = tag t r in
  k = y
  || k < 0
     && Option.is_none (value t r)
     && begin
       set t r v;
       t.tag.(r) <- y;
       true
     end

let linked t s = tag t (find t s) >= 0

let rec unify_args t (ps : Term.t array) pc (hs : Term.t array) hc i =
  i = Array.length ps
  || (match (ps.(i), hs.(i)) with
     | Term.Const u, Term.Const v -> Value.equal u v
     | Term.Var _, Term.Const v -> bind t t.codes.(pc + i) v
     | Term.Const u, Term.Var _ -> bind t t.codes.(hc + i) u
     | Term.Var _, Term.Var _ -> union t t.codes.(pc + i) t.codes.(hc + i))
     && unify_args t ps pc hs hc (i + 1)

let unify_post t ~src ~post_index ~dst ~head_index =
  let posts = t.queries.(src).Query.post in
  let p = List.nth posts post_index in
  let h = List.nth t.queries.(dst).Query.head head_index in
  String.equal p.Cq.rel h.Cq.rel
  && Array.length p.args = Array.length h.args
  && unify_args t p.args
       (skip t.post_at.(src) post_index posts)
       h.args (head_code t dst head_index) 0

(* ------------------------------------------------------------------ *)
(* Unifying a candidate set                                           *)
(* ------------------------------------------------------------------ *)

(* The candidate heads of one postcondition inside the set: how many,
   and the first. *)
let rec count_in in_set n = function
  | [] -> n
  | (d, _) :: rest -> count_in in_set (if in_set d then n + 1 else n) rest

let rec first_in in_set = function
  | [] -> raise Not_found
  | ((d, _) as target) :: rest ->
    if in_set d then target else first_in in_set rest

let rec unify_member t g in_set q pi = function
  | [] -> None
  | (_ : Cq.atom) :: rest -> (
    let targets = Coordination_graph.post_targets g ~src:q ~post_index:pi in
    match count_in in_set 0 targets with
    | 0 -> Some (Unsatisfiable_post (q, pi))
    | 1 ->
      let d, hi = first_in in_set targets in
      if unify_post t ~src:q ~post_index:pi ~dst:d ~head_index:hi then
        unify_member t g in_set q (pi + 1) rest
      else Some (Clash (q, pi))
    | k -> Some (Ambiguous_post (q, pi, k)))

let rec unify_members t g in_set = function
  | [] -> Ok t
  | q :: rest -> (
    match unify_member t g in_set q 0 t.queries.(q).Query.post with
    | None -> unify_members t g in_set rest
    | Some f -> Error f)

let unify_posts g ~in_set ~members = unify_members (start g) g in_set members

let unify_set g ~members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace in_set q ()) members;
  unify_posts g ~in_set:(Hashtbl.mem in_set) ~members

(* ------------------------------------------------------------------ *)
(* The combined body                                                  *)
(* ------------------------------------------------------------------ *)

(* Plan slot [k] of a built body is the variable [class_name k], the
   same string every time. *)
let class_names = ref [||]

let class_name k =
  if k >= Array.length !class_names then
    class_names :=
      Array.init (2 * (k + 8)) (fun i ->
          if i < Array.length !class_names then !class_names.(i)
          else "_" ^ string_of_int i);
  !class_names.(k)

let plan_slot t r = if t.pstamp.(r) = t.bgen then t.pslot.(r) else -1

let plan_name t k = t.pnames.(k)

(* Root [r]'s plan slot, numbered on first sight under [name]. *)
let number_slot t r name =
  match plan_slot t r with
  | -1 ->
    let k = t.npslots in
    t.pstamp.(r) <- t.bgen;
    t.pslot.(r) <- k;
    t.pnames <- fit t.pnames (k + 1) "";
    t.pnames.(k) <- name;
    t.npslots <- k + 1;
    k
  | k -> k

let new_body t =
  t.bgen <- t.bgen + 1;
  t.npslots <- 0

(* Whether a body coded from [c] is its own combined body: no class
   holds a constant or two of its variables.  Numbers its plan slots. *)
let rec same_args t (args : Term.t array) c i =
  i = Array.length args
  || (match args.(i) with
     | Term.Const _ -> true
     | Term.Var x ->
       let r = find t t.codes.(c + i) in
       Option.is_none (value t r)
       && String.equal t.pnames.(number_slot t r x) x)
     && same_args t args c (i + 1)

let rec same t c = function
  | [] -> true
  | (a : Cq.atom) :: rest ->
    same_args t a.args c 0 && same t (c + Array.length a.args) rest

let rec build_atoms t c = function
  | [] -> []
  | (a : Cq.atom) :: rest ->
    let term i arg =
      match arg with
      | Term.Const _ -> arg
      | Term.Var _ -> (
        let r = find t t.codes.(c + i) in
        match value t r with
        | Some v -> Term.Const v
        | None -> Term.Var (class_name (number_slot t r (class_name t.npslots))))
    in
    let a' = { a with args = Array.mapi term a.args } in
    a' :: build_atoms t (c + Array.length a.args) rest

let combined_body t ~members =
  new_body t;
  match members with
  | [ m ] when same t (body_code t m) t.queries.(m).Query.body.atoms ->
    t.queries.(m).body
  | _ ->
    new_body t;
    Cq.make
      (List.concat_map
         (fun m -> build_atoms t (body_code t m) t.queries.(m).Query.body.atoms)
         members)

(* ------------------------------------------------------------------ *)
(* Values                                                             *)
(* ------------------------------------------------------------------ *)

type values = { base : int; v : Value.t array }

let unset = Value.Str (String.make 1 '\000')
let values ~base ~len = { base; v = Array.make len unset }

let get vs s =
  let i = s - vs.base in
  if i < 0 || i >= Array.length vs.v then unset else vs.v.(i)

let is_unset v = v == unset

(* One prefix per member, so one allocation per key. *)
let rec add_slots prefix t vs m s acc =
  if s = t.offsets.(m + 1) then acc
  else
    let x = if prefix = "" then t.names.(s) else prefix ^ t.names.(s) in
    add_slots prefix t vs m (s + 1) (Eval.Binding.add x (get vs s) acc)

let valuation ?ids t ~members vs =
  List.fold_left
    (fun acc m ->
      let prefix =
        match ids with None -> "" | Some ids -> Query.prefixed ids.(m) ""
      in
      add_slots prefix t vs m t.offsets.(m) acc)
    Eval.Binding.empty members

let body_tuples t ~members vs =
  List.concat_map
    (fun m ->
      let c = ref (body_code t m) in
      List.map
        (fun (a : Cq.atom) ->
          let ground i = function
            | Term.Const v -> v
            | Term.Var _ -> get vs t.codes.(!c + i)
          in
          let tuple = Array.mapi ground a.args in
          c := !c + Array.length a.args;
          (a.rel, tuple))
        t.queries.(m).Query.body.atoms)
    members
