open Relational

type error =
  | Duplicate_user of Value.t
  | Missing_relation of string
  | Bad_k of Value.t * int

let pp_error ppf = function
  | Duplicate_user u -> Format.fprintf ppf "duplicate query for user %a" Value.pp u
  | Missing_relation r -> Format.fprintf ppf "relation %s missing" r
  | Bad_k (u, k) ->
    Format.fprintf ppf "user %a asks for %d friends (need k >= 1)" Value.pp u k

type outcome = {
  config : Consistent_query.config;
  queries : Consistent_query.t array;
  options : Tuple.Set.t array;
  candidates : (Tuple.t * int) list;
  chosen_value : Tuple.t option;
  members : int list;
  choices : (Value.t * Value.t) list;
  partner_choices : (int * Value.t list list) list;
  stats : Stats.t;
  degraded : Resilient.degradation option;
}

(* Per-partner coordination requirement, resolved against the batch. *)
type requirement =
  | Named_member of int           (* the named user's query index *)
  | Named_absent                  (* named a user who submitted no query *)
  | From_pool of int array * int  (* candidate query indexes, minimum count *)

type prepared = {
  p_config : Consistent_query.config;
  p_queries : Consistent_query.t array;
  p_options : Tuple.Set.t array;
  p_alive : bool array;
  p_requirements : requirement list array;
}

let own_body_cq config (q : Consistent_query.t) ~coord_value =
  let d = Consistent_query.attr_count config in
  let s_name = Schema.name config.Consistent_query.s_schema in
  let coord_positions = config.Consistent_query.coord_attrs in
  let term_for j =
    match coord_value with
    | Some (v : Tuple.t) when List.mem j coord_positions ->
      (* position of j within the sorted coordination attributes *)
      let rec pos k = function
        | [] -> assert false
        | j' :: rest -> if j' = j then k else pos (k + 1) rest
      in
      Term.Const v.(pos 0 coord_positions)
    | _ -> (
      match q.Consistent_query.own.(j) with
      | Consistent_query.Exact v -> Term.Const v
      | Consistent_query.Any -> Term.Var (Printf.sprintf "a%d" j))
  in
  Cq.make
    [
      {
        Cq.rel = s_name;
        args =
          Array.init (d + 1) (fun c ->
              if c = 0 then Term.Var "x" else term_for (c - 1));
      };
    ]

(* V(q): distinct coordination-attribute values satisfiable for q's own
   tuple.  One database probe. *)
let options_of config db (q : Consistent_query.t) =
  let cq = own_body_cq config q ~coord_value:None in
  let valuations = Eval.find_all db cq in
  let project valuation =
    Array.of_list
      (List.map
         (fun j ->
           match q.Consistent_query.own.(j) with
           | Consistent_query.Exact v -> v
           | Consistent_query.Any ->
             Eval.Binding.find (Printf.sprintf "a%d" j) valuation)
         config.Consistent_query.coord_attrs)
  in
  List.fold_left
    (fun acc valuation -> Tuple.Set.add (project valuation) acc)
    Tuple.Set.empty valuations

(* Partner pool of [user] in binary relation [rel]: one probe. *)
let pool_of db rel user =
  let cq = Cq.make [ { Cq.rel; args = [| Term.Const user; Term.Var "f" |] } ] in
  List.fold_left
    (fun acc valuation -> Value.Set.add (Eval.Binding.find "f" valuation) acc)
    Value.Set.empty (Eval.find_all db cq)

(* Binary relations a query draws pool partners from. *)
let pool_relations config (q : Consistent_query.t) =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (p, _) ->
         match p with
         | Consistent_query.Any_friend | Consistent_query.K_friends _ ->
           Some config.Consistent_query.friends
         | Consistent_query.Any_from rel -> Some rel
         | Consistent_query.Named _ -> None)
       q.Consistent_query.partners)

let prepare db config input =
  let queries = Array.of_list input in
  let n = Array.length queries in
  let failure = ref None in
  let fail e = if !failure = None then failure := Some e in
  (* Sanity: relations present, one query per user, sensible k. *)
  let s_name = Schema.name config.Consistent_query.s_schema in
  if not (Database.mem_relation db s_name) then fail (Missing_relation s_name);
  Array.iter
    (fun q ->
      List.iter
        (fun rel ->
          if not (Database.mem_relation db rel) then fail (Missing_relation rel))
        (pool_relations config q);
      List.iter
        (fun (p, _) ->
          match p with
          | Consistent_query.K_friends k when k < 1 ->
            fail (Bad_k (q.Consistent_query.user, k))
          | Consistent_query.K_friends _ | Consistent_query.Named _
          | Consistent_query.Any_friend | Consistent_query.Any_from _ -> ())
        q.Consistent_query.partners)
    queries;
  let index_of_user = Value.Hashtbl.create (max 1 n) in
  Array.iteri
    (fun i q ->
      let u = q.Consistent_query.user in
      if Value.Hashtbl.mem index_of_user u then fail (Duplicate_user u)
      else Value.Hashtbl.add index_of_user u i)
    queries;
  match !failure with
  | Some e -> Error e
  | None ->
    (* Step 1: option lists V(q).  Step 2: partner pools. *)
    let options = Array.map (options_of config db) queries in
    let pools =
      Array.map
        (fun q ->
          List.map
            (fun rel -> (rel, pool_of db rel q.Consistent_query.user))
            (pool_relations config q))
        queries
    in
    (* Step 3: pruned coordination graph as per-partner requirements,
       restricted to queries with non-empty option lists. *)
    let alive = Array.map (fun o -> not (Tuple.Set.is_empty o)) options in
    let live_index u =
      match Value.Hashtbl.find_opt index_of_user u with
      | Some j when alive.(j) -> Some j
      | Some _ | None -> None
    in
    let pool_members i rel =
      let pool =
        Option.value ~default:Value.Set.empty (List.assoc_opt rel pools.(i))
      in
      Value.Set.fold
        (fun u acc ->
          match live_index u with
          | Some j when j <> i -> j :: acc
          | Some _ | None -> acc)
        pool []
      |> Array.of_list
    in
    let requirements =
      Array.mapi
        (fun i q ->
          List.map
            (fun (p, _) ->
              match p with
              | Consistent_query.Named c -> (
                match live_index c with
                | Some j -> Named_member j
                | None -> Named_absent)
              | Consistent_query.Any_friend ->
                From_pool (pool_members i config.Consistent_query.friends, 1)
              | Consistent_query.Any_from rel ->
                From_pool (pool_members i rel, 1)
              | Consistent_query.K_friends k ->
                From_pool (pool_members i config.Consistent_query.friends, k))
            q.Consistent_query.partners)
        queries
    in
    Ok
      {
        p_config = config;
        p_queries = queries;
        p_options = options;
        p_alive = alive;
        p_requirements = requirements;
      }

let values p =
  Tuple.Set.elements
    (Array.fold_left
       (fun acc o -> Tuple.Set.union acc o)
       Tuple.Set.empty p.p_options)

(* Step 4 kernel: restrict to Gv and clean to a fixpoint.  Pure, and
   allocation-free in the hot loop. *)
let requirement_holds present = function
  | Named_member j -> present.(j)
  | Named_absent -> false
  | From_pool (js, k) ->
    let live = ref 0 in
    let m = Array.length js in
    let i = ref 0 in
    while !live < k && !i < m do
      if present.(js.(!i)) then incr live;
      incr i
    done;
    !live >= k

let survivors p v =
  let n = Array.length p.p_queries in
  let present =
    Array.mapi (fun i live -> live && Tuple.Set.mem v p.p_options.(i)) p.p_alive
  in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    for i = 0 to n - 1 do
      if
        present.(i)
        && not (List.for_all (requirement_holds present) p.p_requirements.(i))
      then begin
        present.(i) <- false;
        changed := true
      end
    done
  done;
  let members = ref [] in
  for i = n - 1 downto 0 do
    if present.(i) then members := i :: !members
  done;
  (!members, !rounds)

let finalize db p ~candidates ~best stats =
  let config = p.p_config and queries = p.p_queries in
  (* Step 5: ground the winning set — one probe per member.  A guard
     abort mid-grounding keeps the member set (its survival was proved
     by the pure cleaning phase) but leaves [choices] empty: the keys
     were never fetched. *)
  let t_ground = Obs.now_ns_int () in
  let ground members v =
    List.map
      (fun i ->
        let q = queries.(i) in
        let cq = own_body_cq config q ~coord_value:(Some v) in
        match Eval.find_first db cq with
        | Some valuation ->
          (q.Consistent_query.user, Eval.Binding.find "x" valuation)
        | None ->
          (* v came from V(q), so the body is satisfiable. *)
          assert false)
      members
  in
  let chosen_value, members, choices, degraded =
    match best with
    | None -> (None, [], [], None)
    | Some (v, members) -> (
      match ground members v with
      | choices -> (Some v, members, choices, None)
      | exception Resilient.Abort reason ->
        ( Some v,
          members,
          [],
          Some
            (Resilient.degraded ~unprobed:[ members ]
               ~note:"winning set not grounded to keys" reason) ))
  in
  stats.Stats.ground_ns <-
    Int64.add stats.Stats.ground_ns
      (Int64.of_int (Obs.now_ns_int () - t_ground));
  (* Partner witnesses, for re-expression in the general formalism. *)
  let member_set = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace member_set i ()) members;
  let partner_choices =
    List.map
      (fun i ->
        let witnesses =
          List.map
            (function
              | Named_member j -> [ queries.(j).Consistent_query.user ]
              | Named_absent -> assert false
              | From_pool (js, k) ->
                Array.to_list js
                |> List.filter (fun j -> Hashtbl.mem member_set j)
                |> List.filteri (fun idx _ -> idx < k)
                |> List.map (fun j -> queries.(j).Consistent_query.user))
            p.p_requirements.(i)
        in
        (i, witnesses))
      members
  in
  {
    config;
    queries;
    options = p.p_options;
    candidates;
    chosen_value;
    members;
    choices;
    partner_choices;
    stats;
    degraded;
  }

(* What a solve degrades to when the guard aborts inside [prepare]: no
   option list was completed, so nothing downstream can run. *)
let degraded_outcome config input stats reason =
  let queries = Array.of_list input in
  let n = Array.length queries in
  {
    config;
    queries;
    options = Array.make n Tuple.Set.empty;
    candidates = [];
    chosen_value = None;
    members = [];
    choices = [];
    partner_choices = [];
    stats;
    degraded =
      Some
        (Resilient.degraded
           ~unprobed:(List.init n (fun i -> [ i ]))
           ~note:"aborted while probing option lists and partner pools"
           reason);
  }

let solve ?(selection = `Largest) db config input =
  Obs.with_span
    ~args:(fun () -> [ ("queries", Obs.Int (List.length input)) ])
    "consistent.solve"
  @@ fun () ->
  let stats = Stats.create () in
  let t_start = Obs.now_ns_int () in
  let counters0 = Database.snapshot_counters db in
  let finish outcome =
    outcome.stats.Stats.total_ns <-
      Int64.of_int (Obs.now_ns_int () - t_start);
    Stats.add_counters outcome.stats
      (Counters.diff ~before:counters0 ~after:(Database.snapshot_counters db));
    Ok outcome
  in
  let t_graph = Obs.now_ns_int () in
  match Obs.with_span "consistent.prepare" (fun () -> prepare db config input) with
  | exception Resilient.Abort reason ->
    finish (degraded_outcome config input stats reason)
  | Error e ->
    stats.total_ns <- Int64.of_int (Obs.now_ns_int () - t_start);
    Error e
  | Ok p ->
    stats.graph_ns <- Int64.of_int (Obs.now_ns_int () - t_graph);
    let candidates = ref [] in
    let best = ref None in
    Obs.with_span
      ~args:(fun () ->
        [
          ("values", Obs.Int stats.candidates);
          ("cleaning_rounds", Obs.Int stats.cleaning_rounds);
        ])
      "consistent.values_loop"
      (fun () ->
        try
          List.iter
            (fun v ->
              stats.candidates <- stats.candidates + 1;
              let members, rounds = survivors p v in
              stats.cleaning_rounds <- stats.cleaning_rounds + rounds;
              let size = List.length members in
              candidates := (v, size) :: !candidates;
              (match !best with
              | Some (_, _, best_size) when best_size >= size -> ()
              | _ when size > 0 -> best := Some (v, members, size)
              | _ -> ());
              if selection = `First && size > 0 then raise Exit)
            (values p)
        with Exit -> ());
    let best = Option.map (fun (v, members, _) -> (v, members)) !best in
    finish
      (Obs.with_span "consistent.ground" (fun () ->
           finalize db p ~candidates:(List.rev !candidates) ~best stats))

let to_solution db outcome =
  match outcome.chosen_value with
  | None -> None
  | Some _ when outcome.degraded <> None ->
    (* A degraded outcome may know its members without their grounded
       keys; there is no full Definition-1 assignment to build. *)
    None
  | Some _ ->
    if not (Array.for_all Consistent_query.expressible outcome.queries) then
      None
    else begin
      let config = outcome.config in
      let compiled =
        Consistent_query.compile_set config (Array.to_list outcome.queries)
      in
      let key_of_user u = List.assoc u outcome.choices in
      let s_rel =
        Database.relation db (Schema.name config.Consistent_query.s_schema)
      in
      let tuple_of_key k =
        match Relation.find_matching s_rel ~col:0 k with
        | Some t -> t
        | None -> assert false
      in
      let assignment = ref Eval.Binding.empty in
      let bind i local v =
        assignment :=
          Eval.Binding.add (Printf.sprintf "q%d.%s" i local) v !assignment
      in
      List.iter
        (fun i ->
          let q = outcome.queries.(i) in
          let user = q.Consistent_query.user in
          let own_key = key_of_user user in
          let own_tuple = tuple_of_key own_key in
          bind i "x" own_key;
          Array.iteri
            (fun j spec ->
              match spec with
              | Consistent_query.Any ->
                bind i (Printf.sprintf "a%d" j) own_tuple.(j + 1)
              | Consistent_query.Exact _ -> ())
            q.Consistent_query.own;
          let witnesses = List.assoc i outcome.partner_choices in
          List.iteri
            (fun k ((p, spec), slot_witnesses) ->
              let witness_user =
                match slot_witnesses with
                | w :: _ -> w
                | [] -> assert false
              in
              let partner_key = key_of_user witness_user in
              let partner_tuple = tuple_of_key partner_key in
              bind i (Printf.sprintf "y%d" k) partner_key;
              (match p with
              | Consistent_query.Any_friend | Consistent_query.Any_from _ ->
                bind i (Printf.sprintf "f%d" k) witness_user
              | Consistent_query.Named _ -> ()
              | Consistent_query.K_friends _ -> assert false);
              Array.iteri
                (fun j s ->
                  match s with
                  | Consistent_query.Free ->
                    bind i (Printf.sprintf "b%d_%d" k j) partner_tuple.(j + 1)
                  | Consistent_query.Same | Consistent_query.Fixed _ -> ())
                spec)
            (List.combine q.Consistent_query.partners witnesses))
        outcome.members;
      Some
        ( compiled,
          Entangled.Solution.make ~members:outcome.members
            ~assignment:!assignment )
    end
