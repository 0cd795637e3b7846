(* Compile-once query plans.

   A conjunctive query is canonicalized into a *shape*: variables are
   numbered into integer slots in first-occurrence order and constants
   are abstracted into positional parameters.  Two queries with the same
   shape (isomorphic up to variable names and constant values) share one
   compiled plan, which is what lets a per-database cache amortise
   planning across the thousands of isomorphic probes the coordination
   algorithms issue.  A probe finds its plan without building a key:
   it canonicalizes into one reused scratch, hashes the shape as it
   goes and compares it with the cached shapes in place.

   Compilation fixes the join order and each atom's access path once per
   *binding stage* — the set of slots bound when the atom is reached is
   known statically, so no per-backtracking-node planning and no string
   hashing remain on the hot path.  The only run-time choice left is
   which of several bound columns to probe when an atom has more than
   one (genuinely data-dependent: it needs the actual values), decided
   by one [Relation.count_matching] call per column per stage entry. *)

exception Unknown_relation of string
exception Arity_mismatch of string * int * int

(* Where a column's value comes from at run time. *)
type arg =
  | Slot of int   (* variable slot in the binding frame *)
  | Param of int  (* constant parameter of the query instance *)

(* Per-column matching operation, fixed at compile time.  Because the
   join order is static, whether a slot is bound when a step runs is
   static too: no run-time boundness checks, and no undo — a slot
   written by a failed match attempt is simply overwritten next time. *)
type op =
  | Bind of int         (* first occurrence: write the tuple value *)
  | Check_slot of int   (* bound slot: compare *)
  | Check_param of int  (* constant: compare *)

type access =
  | Membership                           (* fully bound: O(1) test *)
  | Index_one of int * arg               (* the single bound column *)
  | Index_adaptive of (int * arg) array  (* several; cheapest at run time *)
  | Full_scan

type step = {
  rel : string;
  args : arg array;
  ops : op array;
  access : access;
}

(* Per-step observed statistics, updated on every execution of the
   plan.  Plain int increments: always on, allocation-free, and never
   read by the evaluation itself. *)
type step_stat = {
  mutable s_entered : int;  (* times the step was entered *)
  mutable s_scanned : int;  (* candidates examined (= tuples_scanned share) *)
  mutable s_emitted : int;  (* candidates that matched and moved deeper *)
  mutable s_ns : int64;     (* inclusive time, analyze mode only *)
}

type stats = {
  mutable executions : int;
  mutable exec_ns : int64;  (* whole-plan time, accumulated when Obs armed *)
  est_rows : int array;     (* compile-time per-step cardinality estimate *)
  steps_obs : step_stat array;
  compiled_version : int;   (* Database.data_version at compile *)
  mutable last_seen_version : int;  (* data_version at last cache hit *)
}

(* A shape: per atom of the query, in source order, its relation and
   arity, and per argument the variable's slot or [-1] for a constant.
   Structural equality is shape equality. *)
type shape = {
  sh_rels : string array;
  sh_arities : int array;
  sh_codes : int array;
}

type t = {
  key : string;  (* the shape rendered, for [pp] and sorted listings *)
  shape : shape;
  hash : int;
  steps : step array;
  rels : Relation.t array;
      (* per step, resolved at compile: a plan lives in its database's
         cache, which empties whenever a table is created or dropped *)
  nslots : int;
  nparams : int;
  obs : stats;
  frame : Value.t array;  (* the reused slot frame of {!first} *)
  tuples : Value.t array array;  (* per step, the reused membership probe *)
}

(* The per-instance residue of canonicalization: the concrete constants
   (by parameter position) and variable names (by slot), needed to
   execute a shared plan for one specific query and to name its
   solutions. *)
type binding = {
  params : Value.t array;
  var_names : string array;
}

(* ------------------------------------------------------------------ *)
(* Canonicalization into the probe scratch                            *)
(* ------------------------------------------------------------------ *)

(* Every probe canonicalizes its query into this one scratch (so
   [load] is not reentrant): the slot of each variable, the constants,
   each argument's code and the shape's hash.  A handful of variables
   find their slots by a scan of [names]; past [scan_slots] a table
   takes over. *)
type scratch = {
  mutable c_names : string array;
  mutable c_nslots : int;
  mutable c_params : Value.t array;
  mutable c_nparams : int;
  mutable c_codes : int array;
  mutable c_ncodes : int;
  mutable c_shash : int;
  c_table : (string, int) Hashtbl.t;
  mutable c_generation : int;  (* bumped by every [load] *)
}

let scan_slots = 8

let sc =
  {
    c_names = Array.make 16 "";
    c_nslots = 0;
    c_params = Array.make 16 (Value.Int 0);
    c_nparams = 0;
    c_codes = Array.make 32 0;
    c_ncodes = 0;
    c_shash = 0;
    c_table = Hashtbl.create 16;
    c_generation = 0;
  }

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let rec scan_slot x i =
  if i = sc.c_nslots then -1
  else
    let y = Array.unsafe_get sc.c_names i in
    if y == x || String.equal y x then i else scan_slot x (i + 1)

let find_slot x =
  if sc.c_nslots <= scan_slots then scan_slot x 0
  else match Hashtbl.find_opt sc.c_table x with Some s -> s | None -> -1

let slot_of x =
  match find_slot x with
  | -1 ->
    let s = sc.c_nslots in
    if s = Array.length sc.c_names then sc.c_names <- grow sc.c_names "";
    sc.c_names.(s) <- x;
    sc.c_nslots <- s + 1;
    if s = scan_slots then
      for i = 0 to s do
        Hashtbl.replace sc.c_table sc.c_names.(i) i
      done
    else if s > scan_slots then Hashtbl.replace sc.c_table x s;
    s
  | s -> s

let mix h x = ((h * 31) + x) land max_int

let push_code c =
  if sc.c_ncodes = Array.length sc.c_codes then sc.c_codes <- grow sc.c_codes 0;
  sc.c_codes.(sc.c_ncodes) <- c;
  sc.c_ncodes <- sc.c_ncodes + 1;
  sc.c_shash <- mix sc.c_shash c

let load_arg = function
  | Term.Const v ->
    if sc.c_nparams = Array.length sc.c_params then
      sc.c_params <- grow sc.c_params (Value.Int 0);
    sc.c_params.(sc.c_nparams) <- v;
    sc.c_nparams <- sc.c_nparams + 1;
    push_code (-1)
  | Term.Var x -> push_code (slot_of x)

let rec load_atoms = function
  | [] -> ()
  | (a : Cq.atom) :: rest ->
    sc.c_shash <-
      mix (mix sc.c_shash (Hashtbl.hash a.rel)) (Array.length a.args);
    Array.iter load_arg a.args;
    load_atoms rest

(* Canonicalize [q] into the scratch. *)
let load (q : Cq.t) =
  if sc.c_nslots > scan_slots then Hashtbl.reset sc.c_table;
  sc.c_nslots <- 0;
  sc.c_nparams <- 0;
  sc.c_ncodes <- 0;
  sc.c_shash <- 0;
  sc.c_generation <- sc.c_generation + 1;
  load_atoms q.atoms

let scratch_shape (q : Cq.t) =
  {
    sh_rels = Array.of_list (List.map (fun (a : Cq.atom) -> a.rel) q.atoms);
    sh_arities =
      Array.of_list
        (List.map (fun (a : Cq.atom) -> Array.length a.args) q.atoms);
    sh_codes = Array.sub sc.c_codes 0 sc.c_ncodes;
  }

let scratch_binding () =
  {
    params = Array.sub sc.c_params 0 sc.c_nparams;
    var_names = Array.sub sc.c_names 0 sc.c_nslots;
  }

let canonicalize q =
  load q;
  (scratch_shape q, scratch_binding ())

let render shape =
  let buf = Buffer.create 64 and k = ref 0 in
  Array.iteri
    (fun i rel ->
      Buffer.add_string buf rel;
      Buffer.add_char buf '(';
      for _ = 1 to shape.sh_arities.(i) do
        let c = shape.sh_codes.(!k) in
        incr k;
        if c < 0 then Buffer.add_string buf "p,"
        else begin
          Buffer.add_char buf 's';
          Buffer.add_string buf (string_of_int c);
          Buffer.add_char buf ','
        end
      done;
      Buffer.add_string buf ");")
    shape.sh_rels;
  Buffer.contents buf

let key q = render (fst (canonicalize q))

(* Whether [plan] has the shape of [q], the query just loaded. *)
let rec same_atoms plan i = function
  | [] -> i = Array.length plan.shape.sh_rels
  | (a : Cq.atom) :: rest ->
    i < Array.length plan.shape.sh_rels
    && (let rel = plan.shape.sh_rels.(i) in
        rel == a.rel || String.equal rel a.rel)
    && plan.shape.sh_arities.(i) = Array.length a.args
    && same_atoms plan (i + 1) rest

let rec same_codes codes k =
  k = sc.c_ncodes
  || (Array.unsafe_get codes k = Array.unsafe_get sc.c_codes k
     && same_codes codes (k + 1))

let matches plan (q : Cq.t) =
  plan.hash = sc.c_shash
  && Array.length plan.shape.sh_codes = sc.c_ncodes
  && plan.nparams = sc.c_nparams
  && same_codes plan.shape.sh_codes 0
  && same_atoms plan 0 q.atoms

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

let resolve lookup rel nargs =
  match lookup rel with
  | None -> raise (Unknown_relation rel)
  | Some r ->
    let expected = Relation.arity r in
    if nargs <> expected then raise (Arity_mismatch (rel, nargs, expected));
    r

(* Compile-time cardinality estimate of one access path.  Constants are
   abstracted out of shapes, so index paths estimate the average bucket
   of the probed column; the observed statistics measure how far the
   actual buckets drift from it. *)
let estimate rel access =
  match access with
  | Membership -> 1
  | Index_one (c, _) -> Relation.estimate_bucket rel ~col:c
  | Index_adaptive cols ->
    Array.fold_left
      (fun acc (c, _) -> min acc (Relation.estimate_bucket rel ~col:c))
      max_int cols
  | Full_scan -> Relation.cardinal rel

(* Unplaced atoms in the order the greedy join order takes them: cost
   class, then relation cardinality, then the larger atom index. *)
module Pick = Set.Make (struct
  type t = int * int * int  (* class, cardinality, atom index *)

  let compare (c1, n1, i1) (c2, n2, i2) =
    if c1 <> c2 then Int.compare c1 c2
    else if n1 <> n2 then Int.compare n1 n2
    else Int.compare i2 i1
end)

let compile ?(version = 0) lookup q =
  load q;
  let shape = scratch_shape q and hash = sc.c_shash in
  let nslots = sc.c_nslots and nparams = sc.c_nparams in
  let atoms =
    let k = ref 0 and j = ref 0 in
    Array.mapi
      (fun i rel ->
        ( rel,
          Array.init shape.sh_arities.(i) (fun _ ->
              let c = shape.sh_codes.(!k) in
              incr k;
              if c >= 0 then Slot c
              else begin
                incr j;
                Param (!j - 1)
              end) ))
      shape.sh_rels
  in
  let rels =
    Array.map (fun (rel, args) -> resolve lookup rel (Array.length args)) atoms
  in
  let n = Array.length atoms in
  let bound = Array.make nslots false in
  let placed = Array.make n false in
  (* Per atom, its columns bound so far (constants from the start), and
     per slot the atoms with a column on it, once per column: binding a
     slot updates only those, so a k-atom shape is ordered in
     O(k log k), not O(k^2). *)
  let nbound =
    Array.map
      (fun (_, args) ->
        Array.fold_left
          (fun k a -> match a with Param _ -> k + 1 | Slot _ -> k)
          0 args)
      atoms
  in
  let users = Array.make nslots [] in
  Array.iteri
    (fun i (_, args) ->
      Array.iter
        (function Slot s -> users.(s) <- i :: users.(s) | Param _ -> ())
        args)
    atoms;
  (* Static cost class of atom [i] under the current bound-slot set:
     fully bound beats constant-indexed beats slot-indexed beats scan;
     relation cardinality (a compile-time statistic — constants are
     abstracted, so per-value counts are unavailable) breaks ties. *)
  let rank i =
    let _, args = atoms.(i) in
    let card = Relation.cardinal rels.(i) in
    if nbound.(i) = Array.length args then (0, 0, i)
    else if nbound.(i) > 0 then
      ( (if Array.exists (function Param _ -> true | Slot _ -> false) args
         then 1
         else 2),
        card,
        i )
    else (3, card, i)
  in
  let unplaced = ref (Pick.of_list (List.init n rank)) in
  let bind s =
    bound.(s) <- true;
    List.iter
      (fun j ->
        if not placed.(j) then begin
          unplaced := Pick.remove (rank j) !unplaced;
          nbound.(j) <- nbound.(j) + 1;
          unplaced := Pick.add (rank j) !unplaced
        end)
      users.(s)
  in
  let steps = ref [] in
  let step_rels = ref [] in
  let ests = ref [] in
  for _stage = 0 to n - 1 do
    let ((_, _, i) as best) = Pick.min_elt !unplaced in
    unplaced := Pick.remove best !unplaced;
    placed.(i) <- true;
    let rel, args = atoms.(i) in
    (* Access path from the slots bound *before* this stage. *)
    let candidates = ref [] in
    Array.iteri
      (fun c a ->
        match a with
        | Param _ -> candidates := (c, a) :: !candidates
        | Slot s -> if bound.(s) then candidates := (c, a) :: !candidates)
      args;
    let candidates = List.rev !candidates in
    let access =
      if List.length candidates = Array.length args then Membership
      else
        match candidates with
        | [] -> Full_scan
        | [ (c, a) ] -> Index_one (c, a)
        | many -> Index_adaptive (Array.of_list many)
    in
    (* Per-column ops; a slot's first occurrence (across the whole step
       sequence) binds, later ones compare. *)
    let ops =
      Array.map
        (fun a ->
          match a with
          | Param j -> Check_param j
          | Slot s ->
            if bound.(s) then Check_slot s
            else begin
              bind s;
              Bind s
            end)
        args
    in
    steps := { rel; args; ops; access } :: !steps;
    step_rels := rels.(i) :: !step_rels;
    ests := estimate rels.(i) access :: !ests
  done;
  let steps = Array.of_list (List.rev !steps) in
  {
    key = render shape;
    shape;
    hash;
    steps;
    rels = Array.of_list (List.rev !step_rels);
    nslots;
    nparams;
    frame = Array.make (max 1 nslots) (Value.Int 0);
    tuples =
      Array.map (fun st -> Array.make (Array.length st.args) (Value.Int 0)) steps;
    obs =
      {
        executions = 0;
        exec_ns = 0L;
        est_rows = Array.of_list (List.rev !ests);
        steps_obs =
          Array.init (Array.length steps) (fun _ ->
              { s_entered = 0; s_scanned = 0; s_emitted = 0; s_ns = 0L });
        compiled_version = version;
        last_seen_version = version;
      };
  }

(* ------------------------------------------------------------------ *)
(* The plan cache                                                     *)
(* ------------------------------------------------------------------ *)

(* Plans chained by shape hash: a probe hashes its shape while loading
   it and compares the shape in place, so a hit builds no key. *)
type cache = { mutable buckets : t list array; mutable size : int }

let create_cache () = { buckets = Array.make 64 []; size = 0 }

let clear_cache c =
  c.buckets <- Array.make 64 [];
  c.size <- 0

let cache_size c = c.size

let cache_plans c =
  Array.fold_left (fun acc ps -> List.rev_append ps acc) [] c.buckets

let bucket c h = h land (Array.length c.buckets - 1)

let rec find_in q = function
  | [] -> raise_notrace Not_found
  | plan :: rest -> if matches plan q then plan else find_in q rest

let add c plan =
  if c.size >= 2 * Array.length c.buckets then begin
    let old = c.buckets in
    c.buckets <- Array.make (2 * Array.length old) [];
    Array.iter
      (List.iter (fun p ->
           let b = bucket c p.hash in
           c.buckets.(b) <- p :: c.buckets.(b)))
      old
  end;
  let b = bucket c plan.hash in
  c.buckets.(b) <- plan :: c.buckets.(b);
  c.size <- c.size + 1

let find c ~version lookup (counters : Counters.t) q =
  load q;
  match find_in q c.buckets.(bucket c sc.c_shash) with
  | plan ->
    counters.plan_hits <- counters.plan_hits + 1;
    plan.obs.last_seen_version <- version;
    plan
  | exception Not_found ->
    counters.plan_misses <- counters.plan_misses + 1;
    let plan = compile ~version lookup q in
    add c plan;
    plan

let binding () = scratch_binding ()

let frame plan = plan.frame

let shape_key plan = plan.key

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* Analyze mode: when on, every step execution is timed (two clock
   reads per step entry) and charged inclusively to its per-step
   [s_ns].  Process-global by design — `solve --explain-analyze` arms
   it around one solve; the always-on counters above never depend on
   it. *)
let analyze_mode = ref false

let set_analyze b = analyze_mode := b

let value frame params = function
  | Slot s -> Array.unsafe_get frame s
  | Param j -> Array.unsafe_get params j

(* Match tuple [t] against the step's ops, binding first occurrences. *)
let rec matches_ops ops frame params (t : Tuple.t) c =
  c = Array.length ops
  ||
  match Array.unsafe_get ops c with
  | Bind s ->
    Array.unsafe_set frame s (Array.unsafe_get t c);
    matches_ops ops frame params t (c + 1)
  | Check_slot s ->
    Value.equal (Array.unsafe_get frame s) (Array.unsafe_get t c)
    && matches_ops ops frame params t (c + 1)
  | Check_param j ->
    Value.equal (Array.unsafe_get params j) (Array.unsafe_get t c)
    && matches_ops ops frame params t (c + 1)

(* The join: step [i] onwards, false once [on_frame] asked to stop.
   Top-level and closure-free, so an execution allocates nothing. *)
let rec go plan frame params (counters : Counters.t) on_frame i =
  if i = Array.length plan.steps then on_frame frame
  else begin
    let so = plan.obs.steps_obs.(i) in
    so.s_entered <- so.s_entered + 1;
    if not !analyze_mode then access plan frame params counters on_frame i so
    else begin
      (* Inclusive per-step time (children included), like EXPLAIN
         ANALYZE's actual-time column. *)
      let t0 = Obs.now_ns () in
      let charge () =
        so.s_ns <- Int64.add so.s_ns (Int64.sub (Obs.now_ns ()) t0)
      in
      match access plan frame params counters on_frame i so with
      | more ->
        charge ();
        more
      | exception e ->
        charge ();
        raise e
    end
  end

and access plan frame params (counters : Counters.t) on_frame i so =
  let st = plan.steps.(i) and r = plan.rels.(i) in
  match st.access with
  | Membership ->
    counters.tuples_scanned <- counters.tuples_scanned + 1;
    so.s_scanned <- so.s_scanned + 1;
    let t = plan.tuples.(i) in
    for c = 0 to Array.length t - 1 do
      t.(c) <- value frame params st.args.(c)
    done;
    if Relation.mem r t then begin
      so.s_emitted <- so.s_emitted + 1;
      go plan frame params counters on_frame (i + 1)
    end
    else true
  | Index_one (c, a) ->
    let ids = Relation.matching_rows r ~col:c (value frame params a) in
    scan_ids plan frame params counters on_frame i so st.ops r ids 0
  | Index_adaptive cols ->
    (* The only run-time planning left: with several bound columns
       the cheapest depends on the actual values. *)
    let best = ref 0 and best_cost = ref max_int in
    for k = 0 to Array.length cols - 1 do
      let c, a = cols.(k) in
      let cost = Relation.count_matching r ~col:c (value frame params a) in
      if cost < !best_cost then begin
        best_cost := cost;
        best := k
      end
    done;
    let c, a = cols.(!best) in
    let ids = Relation.matching_rows r ~col:c (value frame params a) in
    scan_ids plan frame params counters on_frame i so st.ops r ids 0
  | Full_scan -> scan_rows plan frame params counters on_frame i so st.ops r 0

and try_row plan frame params (counters : Counters.t) on_frame i so ops r row =
  (not (Relation.live r row))
  || begin
    counters.tuples_scanned <- counters.tuples_scanned + 1;
    so.s_scanned <- so.s_scanned + 1;
    (not (matches_ops ops frame params (Relation.row r row) 0))
    || begin
      so.s_emitted <- so.s_emitted + 1;
      go plan frame params counters on_frame (i + 1)
    end
  end

and scan_ids plan frame params counters on_frame i so ops r ids k =
  k >= Vec.length ids
  || (try_row plan frame params counters on_frame i so ops r (Vec.get ids k)
     && scan_ids plan frame params counters on_frame i so ops r ids (k + 1))

and scan_rows plan frame params counters on_frame i so ops r row =
  row >= Relation.rows r
  || (try_row plan frame params counters on_frame i so ops r row
     && scan_rows plan frame params counters on_frame i so ops r (row + 1))

let run plan frame params counters on_frame =
  let obs = plan.obs in
  obs.executions <- obs.executions + 1;
  (* [tracing], not [enabled]: always-on telemetry (metrics registry,
     flight recorder) must keep the zero-allocation probe path, and
     [Obs.now_ns] boxes its int64.  Wall time is only accrued when a
     serializing sink is attached or EXPLAIN ANALYZE asked for it. *)
  if not (Obs.tracing () || !analyze_mode) then
    not (go plan frame params counters on_frame 0)
  else begin
    let t_run = Obs.now_ns () in
    let stopped = not (go plan frame params counters on_frame 0) in
    obs.exec_ns <- Int64.add obs.exec_ns (Int64.sub (Obs.now_ns ()) t_run);
    stopped
  end

let stop_at_first _ = false

let first plan (counters : Counters.t) =
  run plan plan.frame sc.c_params counters stop_at_first

let generation () = sc.c_generation

let var_name s = sc.c_names.(s)

let execute plan (counters : Counters.t) (binding : binding) ~on_frame =
  if Array.length binding.params <> plan.nparams then
    invalid_arg "Plan.execute: parameter count does not match the plan";
  (* All slots are statically bound before first read, so a dummy
     initial value is never observed. *)
  let frame = Array.make (max 1 plan.nslots) (Value.Int 0) in
  ignore (run plan frame binding.params counters on_frame)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let nslots plan = plan.nslots

let stats plan = plan.obs

let reset_stats plan =
  let obs = plan.obs in
  obs.executions <- 0;
  obs.exec_ns <- 0L;
  Array.iter
    (fun so ->
      so.s_entered <- 0;
      so.s_scanned <- 0;
      so.s_emitted <- 0;
      so.s_ns <- 0L)
    obs.steps_obs

(* Mean candidates scanned per entry of step [i] — the observed
   counterpart of [est_rows.(i)]. *)
let observed_rows plan i =
  let so = plan.obs.steps_obs.(i) in
  if so.s_entered = 0 then 0.0
  else float_of_int so.s_scanned /. float_of_int so.s_entered

(* Largest per-step estimate-vs-observed ratio (symmetric: an estimate
   off by 4x in either direction reports 4.0).  1.0 means the compile
   cardinalities still describe the data; adaptive re-planning keys on
   this together with how far [last_seen_version] ran from
   [compiled_version]. *)
let max_drift plan =
  let worst = ref 1.0 in
  Array.iteri
    (fun i _ ->
      let so = plan.obs.steps_obs.(i) in
      if so.s_entered > 0 then begin
        let obs = Float.max (observed_rows plan i) 1.0 in
        let est = Float.max (float_of_int plan.obs.est_rows.(i)) 1.0 in
        let ratio = if obs > est then obs /. est else est /. obs in
        if ratio > !worst then worst := ratio
      end)
    plan.steps;
  !worst

let pp_arg ppf = function
  | Slot s -> Format.fprintf ppf "s%d" s
  | Param j -> Format.fprintf ppf "p%d" j

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan %s" plan.key;
  Array.iteri
    (fun i st ->
      Format.fprintf ppf "@,%d. %s(%s) via %s" (i + 1) st.rel
        (String.concat ", "
           (Array.to_list (Array.map (Format.asprintf "%a" pp_arg) st.args)))
        (match st.access with
        | Membership -> "membership"
        | Index_one (c, a) ->
          Format.asprintf "index col %d = %a" c pp_arg a
        | Index_adaptive cols ->
          Format.asprintf "adaptive index over cols {%s}"
            (String.concat ", "
               (Array.to_list
                  (Array.map (fun (c, _) -> string_of_int c) cols)))
        | Full_scan -> "scan"))
    plan.steps;
  Format.fprintf ppf "@]"

let access_label st =
  match st.access with
  | Membership -> "membership"
  | Index_one (c, a) -> Format.asprintf "index[%d=%a]" c pp_arg a
  | Index_adaptive cols ->
    Format.asprintf "adaptive{%s}"
      (String.concat ","
         (Array.to_list (Array.map (fun (c, _) -> string_of_int c) cols)))
  | Full_scan -> "scan"

(* EXPLAIN ANALYZE rendering: the compiled order with, per step, the
   compile-time cardinality estimate against what executing the plan
   actually observed.  Times only appear when the runs happened under
   analyze mode ([s_ns] stays 0 otherwise) — tests filter them out. *)
let pp_analyze ppf plan =
  let obs = plan.obs in
  Format.fprintf ppf "@[<v>plan %s" plan.key;
  Format.fprintf ppf "@,  executions=%d drift=%.2f version=%d->%d"
    obs.executions (max_drift plan) obs.compiled_version
    obs.last_seen_version;
  if obs.exec_ns > 0L then
    Format.fprintf ppf "@,  total time %.3f ms"
      (Int64.to_float obs.exec_ns /. 1e6);
  Array.iteri
    (fun i st ->
      let so = obs.steps_obs.(i) in
      Format.fprintf ppf
        "@,%d. %s(%s) via %s  est_rows=%d obs_rows=%.1f entered=%d \
         scanned=%d emitted=%d sel=%s"
        (i + 1) st.rel
        (String.concat ", "
           (Array.to_list (Array.map (Format.asprintf "%a" pp_arg) st.args)))
        (access_label st) obs.est_rows.(i) (observed_rows plan i)
        so.s_entered so.s_scanned so.s_emitted
        (if so.s_scanned = 0 then "-"
         else
           Printf.sprintf "%.3f"
             (float_of_int so.s_emitted /. float_of_int so.s_scanned));
      if so.s_ns > 0L then
        Format.fprintf ppf " time=%.3fms" (Int64.to_float so.s_ns /. 1e6))
    plan.steps;
  Format.fprintf ppf "@]"
