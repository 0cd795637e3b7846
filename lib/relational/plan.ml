(* Compile-once query plans.

   A conjunctive query is canonicalized into a *shape*: variables are
   numbered into integer slots in first-occurrence order and constants
   are abstracted into positional parameters.  Two queries with the same
   shape (isomorphic up to variable names and constant values) share one
   compiled plan, which is what lets a per-database cache amortise
   planning across the thousands of isomorphic probes the coordination
   algorithms issue.

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
   plan.  Plain int increments: always on, allocation-free, and
   advisory — a plan shared across executor domains takes lossy
   unsynchronised updates, which skews counts by at most the lost races
   and never affects results. *)
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

type t = {
  key : string;
  steps : step array;
  nslots : int;
  nparams : int;
  obs : stats;
}

(* The per-instance residue of canonicalization: the concrete constants
   (by parameter position) and variable names (by slot), needed to
   execute a shared plan for one specific query and to name its
   solutions. *)
type binding = {
  params : Value.t array;
  var_names : string array;
}

type shape = {
  sh_atoms : (string * arg array) list;
  sh_nslots : int;
  sh_nparams : int;
}

let canonicalize (q : Cq.t) =
  let var_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let var_names = ref [] in
  let params = ref [] in
  let nparams = ref 0 in
  let buf = Buffer.create 64 in
  let catoms =
    List.map
      (fun (a : Cq.atom) ->
        Buffer.add_string buf a.rel;
        Buffer.add_char buf '(';
        let args =
          Array.map
            (fun t ->
              match t with
              | Term.Const v ->
                let j = !nparams in
                incr nparams;
                params := v :: !params;
                Buffer.add_string buf "p,";
                Param j
              | Term.Var x ->
                let s =
                  match Hashtbl.find_opt var_ids x with
                  | Some s -> s
                  | None ->
                    let s = Hashtbl.length var_ids in
                    Hashtbl.add var_ids x s;
                    var_names := x :: !var_names;
                    s
                in
                Buffer.add_char buf 's';
                Buffer.add_string buf (string_of_int s);
                Buffer.add_char buf ',';
                Slot s)
            a.args
        in
        Buffer.add_string buf ");";
        (a.rel, args))
      q.atoms
  in
  let shape =
    {
      sh_atoms = catoms;
      sh_nslots = Hashtbl.length var_ids;
      sh_nparams = !nparams;
    }
  in
  let binding =
    {
      params = Array.of_list (List.rev !params);
      var_names = Array.of_list (List.rev !var_names);
    }
  in
  (Buffer.contents buf, shape, binding)

let key q =
  let k, _, _ = canonicalize q in
  k

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

let compile ?(version = 0) lookup ~key (shape : shape) =
  let atoms = Array.of_list shape.sh_atoms in
  let rels =
    Array.map (fun (rel, args) -> resolve lookup rel (Array.length args)) atoms
  in
  let n = Array.length atoms in
  let bound = Array.make shape.sh_nslots false in
  let placed = Array.make n false in
  (* Static cost class of atom [i] under the current bound-slot set:
     fully bound beats constant-indexed beats slot-indexed beats scan;
     relation cardinality (a compile-time statistic — constants are
     abstracted, so per-value counts are unavailable) breaks ties. *)
  let assess i =
    let _, args = atoms.(i) in
    let total = Array.length args in
    let bound_cols = ref 0 and has_param = ref false in
    Array.iter
      (fun a ->
        match a with
        | Param _ ->
          incr bound_cols;
          has_param := true
        | Slot s -> if bound.(s) then incr bound_cols)
      args;
    let card = Relation.cardinal rels.(i) in
    if !bound_cols = total then (0, 0)
    else if !bound_cols > 0 then ((if !has_param then 1 else 2), card)
    else (3, card)
  in
  let steps = ref [] in
  let ests = ref [] in
  for _stage = 0 to n - 1 do
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
              bound.(s) <- true;
              Bind s
            end)
        args
    in
    steps := { rel; args; ops; access } :: !steps;
    ests := estimate rels.(i) access :: !ests
  done;
  let steps = Array.of_list (List.rev !steps) in
  {
    key;
    steps;
    nslots = shape.sh_nslots;
    nparams = shape.sh_nparams;
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

let compile_query ?version lookup q =
  let key, shape, binding = canonicalize q in
  (compile ?version lookup ~key shape, binding)

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

exception Stop

(* Analyze mode: when on, every step execution is timed (two clock
   reads per step entry) and charged inclusively to its per-step
   [s_ns].  Process-global by design — `solve --explain-analyze` arms
   it around one solve; the always-on counters above never depend on
   it. *)
let analyze_mode = ref false

let set_analyze b = analyze_mode := b

let analyze_enabled () = !analyze_mode

let execute plan lookup (counters : Counters.t) (binding : binding) ~on_frame =
  if Array.length binding.params <> plan.nparams then
    invalid_arg "Plan.execute: parameter count does not match the plan";
  (* Re-resolve relations: the plan may be older than a drop/create of a
     table, in which case stale arities must surface as errors, not
     out-of-bounds reads. *)
  let rels =
    Array.map (fun st -> resolve lookup st.rel (Array.length st.args)) plan.steps
  in
  let params = binding.params in
  (* All slots are statically bound before first read, so a dummy
     initial value is never observed. *)
  let frame = Array.make (max 1 plan.nslots) (Value.Int 0) in
  let value = function Slot s -> frame.(s) | Param j -> params.(j) in
  let nsteps = Array.length plan.steps in
  let obs = plan.obs in
  obs.executions <- obs.executions + 1;
  (* [tracing], not [enabled]: always-on telemetry (metrics registry,
     flight recorder) must keep the zero-allocation probe path, and
     [Obs.now_ns] boxes its int64.  Wall time is only accrued when a
     serializing sink is attached or EXPLAIN ANALYZE asked for it. *)
  let armed = Obs.tracing () || !analyze_mode in
  let t_run = if armed then Obs.now_ns () else 0L in
  let rec go i =
    if i = nsteps then begin
      if not (on_frame frame) then raise Stop
    end
    else begin
      let st = plan.steps.(i) in
      let r = rels.(i) in
      let so = obs.steps_obs.(i) in
      so.s_entered <- so.s_entered + 1;
      let ops = st.ops in
      let nops = Array.length ops in
      let try_tuple (t : Tuple.t) =
        counters.tuples_scanned <- counters.tuples_scanned + 1;
        so.s_scanned <- so.s_scanned + 1;
        let ok = ref true in
        let c = ref 0 in
        while !ok && !c < nops do
          (match ops.(!c) with
          | Bind s -> frame.(s) <- t.(!c)
          | Check_slot s -> if not (Value.equal frame.(s) t.(!c)) then ok := false
          | Check_param j ->
            if not (Value.equal params.(j) t.(!c)) then ok := false);
          incr c
        done;
        if !ok then begin
          so.s_emitted <- so.s_emitted + 1;
          go (i + 1)
        end
      in
      let run_access () =
        match st.access with
        | Membership ->
          counters.tuples_scanned <- counters.tuples_scanned + 1;
          so.s_scanned <- so.s_scanned + 1;
          if Relation.mem r (Array.map value st.args) then begin
            so.s_emitted <- so.s_emitted + 1;
            go (i + 1)
          end
        | Index_one (c, a) -> Relation.iter_matching r ~col:c (value a) try_tuple
        | Index_adaptive cols ->
          (* The only run-time planning left: with several bound columns
             the cheapest depends on the actual values. *)
          let best_col = ref (-1) and best_v = ref (Value.Int 0) in
          let best_cost = ref max_int in
          Array.iter
            (fun (c, a) ->
              let v = value a in
              let cost = Relation.count_matching r ~col:c v in
              if cost < !best_cost then begin
                best_cost := cost;
                best_col := c;
                best_v := v
              end)
            cols;
          Relation.iter_matching r ~col:!best_col !best_v try_tuple
        | Full_scan -> Relation.iter try_tuple r
      in
      if not !analyze_mode then run_access ()
      else begin
        (* Inclusive per-step time (children included), like EXPLAIN
           ANALYZE's actual-time column.  [Fun.protect] so a Stop
           unwinding from a solution callback still charges the step. *)
        let t0 = Obs.now_ns () in
        Fun.protect
          ~finally:(fun () ->
            so.s_ns <- Int64.add so.s_ns (Int64.sub (Obs.now_ns ()) t0))
          run_access
      end
    end
  in
  (try go 0 with Stop -> ());
  if armed then obs.exec_ns <- Int64.add obs.exec_ns (Int64.sub (Obs.now_ns ()) t_run)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let nslots plan = plan.nslots

let plan_key plan = plan.key

let stats plan = plan.obs

let note_seen plan ~version = plan.obs.last_seen_version <- version

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
