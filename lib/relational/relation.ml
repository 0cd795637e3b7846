(* One index posting: the row ids whose column holds a given value.  The
   ids vector may contain tombstoned rows (filtered against [live] on
   read); [count] tracks live rows only.  When dead ids outnumber live
   ones the posting is filtered in place, so hot keys that see repeated
   delete/insert cycles do not make scans re-walk dead row ids
   forever. *)
type posting = {
  mutable count : int;   (* live rows with this value *)
  ids : int Vec.t;       (* row ids, possibly stale *)
}

type t = {
  schema : Schema.t;
  mutable tuples : Tuple.t Vec.t;
  mutable live : bool Vec.t;            (* tombstones, parallel to tuples *)
  mutable present : int Tuple.Hashtbl.t; (* tuple -> live row id *)
  mutable dead_count : int;
  (* indexes.(c) maps a value of column c to its posting; built lazily on
     first lookup of column c. *)
  mutable indexes : posting Value.Hashtbl.t option array;
  (* Content-version stamp, shared with the owning database (every
     relation of one database bumps the same atomic) so that
     [Database.data_version] moves exactly when *that* database's
     contents move.  Standalone relations get a private stamp. *)
  version : int Atomic.t;
  (* Observed mutation statistics for the query-intelligence layer. *)
  mutable n_inserts : int;
  mutable n_deletes : int;
}

(* Process-wide stamp of extensional mutations (successful inserts and
   deletes, plus table creation/removal via [note_mutation]).  Consumers
   that cache anything derived from database contents — the online
   engine's per-component evaluation cache — snapshot this and
   invalidate when it moves.  A monotone counter shared across stores
   can only over-invalidate, never miss a change.  Atomic because the
   multicore batch executor mutates per-component tables from several
   domains at once; a plain [ref]'s lost updates could freeze a stale
   cache stamp forever. *)
let mutations = Atomic.make 0

let mutation_count () = Atomic.get mutations

let note_mutation () = Atomic.incr mutations

let create ?version schema =
  let r =
    {
      schema;
      tuples = Vec.create ();
      live = Vec.create ();
      present = Tuple.Hashtbl.create 64;
      dead_count = 0;
      indexes = Array.make (Schema.arity schema) None;
      version = (match version with Some v -> v | None -> Atomic.make 0);
      n_inserts = 0;
      n_deletes = 0;
    }
  in
  (* The first-argument index is eager, not lazy: the coordination
     algorithms bucket atoms by their first argument, so per-bucket
     cardinalities must be maintained from the first insert for the
     planner's estimates to mean anything. *)
  if Schema.arity schema > 0 then
    r.indexes.(0) <- Some (Value.Hashtbl.create 16);
  r

let schema r = r.schema

let name r = Schema.name r.schema

let arity r = Schema.arity r.schema

let cardinal r = Vec.length r.tuples - r.dead_count

let check_arity r t =
  if Tuple.arity t <> arity r then
    invalid_arg
      (Printf.sprintf "Relation %s: tuple arity %d, expected %d" (name r)
         (Tuple.arity t) (arity r))

let index_row idx row t c =
  let v = t.(c) in
  match Value.Hashtbl.find_opt idx v with
  | Some p ->
    p.count <- p.count + 1;
    Vec.push p.ids row
  | None ->
    let p = { count = 1; ids = Vec.create () } in
    Vec.push p.ids row;
    Value.Hashtbl.add idx v p

let insert r t =
  check_arity r t;
  if Tuple.Hashtbl.mem r.present t then false
  else begin
    let row = Vec.length r.tuples in
    Tuple.Hashtbl.add r.present t row;
    Vec.push r.tuples t;
    Vec.push r.live true;
    Array.iteri
      (fun c idx ->
        match idx with None -> () | Some idx -> index_row idx row t c)
      r.indexes;
    r.n_inserts <- r.n_inserts + 1;
    Atomic.incr r.version;
    note_mutation ();
    true
  end

let insert_list r ts = List.iter (fun t -> ignore (insert r t)) ts

(* Rebuild the store with only live rows; indexes are dropped and will
   be rebuilt lazily on next use. *)
let compact r =
  let tuples = Vec.create () in
  let live = Vec.create () in
  let present = Tuple.Hashtbl.create (max 64 (cardinal r)) in
  Vec.iteri
    (fun row t ->
      if Vec.get r.live row then begin
        Tuple.Hashtbl.add present t (Vec.length tuples);
        Vec.push tuples t;
        Vec.push live true
      end)
    r.tuples;
  r.tuples <- tuples;
  r.live <- live;
  r.present <- present;
  r.dead_count <- 0;
  r.indexes <- Array.make (arity r) None;
  (* Keep the first-argument bucket counters alive across compaction
     (the other indexes rebuild lazily as before). *)
  if arity r > 0 then begin
    let idx = Value.Hashtbl.create (max 16 (cardinal r)) in
    Vec.iteri (fun row t -> index_row idx row t 0) r.tuples;
    r.indexes.(0) <- Some idx
  end

(* Drop tombstoned ids once they outnumber live ones (dead fraction
   above 1/2), keeping index scans proportional to live matches. *)
let maybe_prune_posting r p =
  if Vec.length p.ids > 2 * p.count then
    Vec.filter_in_place (fun row -> Vec.get r.live row) p.ids

let delete r t =
  check_arity r t;
  match Tuple.Hashtbl.find_opt r.present t with
  | None -> false
  | Some row ->
    Tuple.Hashtbl.remove r.present t;
    Vec.set r.live row false;
    r.dead_count <- r.dead_count + 1;
    (* Keep index counts accurate; dead row ids are filtered on read and
       purged when a posting goes majority-dead. *)
    Array.iteri
      (fun c idx ->
        match idx with
        | None -> ()
        | Some idx -> (
          let v = t.(c) in
          match Value.Hashtbl.find_opt idx v with
          | Some p ->
            p.count <- p.count - 1;
            maybe_prune_posting r p
          | None -> ()))
      r.indexes;
    if r.dead_count > Vec.length r.tuples / 2 then compact r;
    r.n_deletes <- r.n_deletes + 1;
    Atomic.incr r.version;
    note_mutation ();
    true

let mem r t =
  check_arity r t;
  Tuple.Hashtbl.mem r.present t

let iter f r =
  Vec.iteri (fun row t -> if Vec.get r.live row then f t) r.tuples

let fold f init r =
  let acc = ref init in
  iter (fun t -> acc := f !acc t) r;
  !acc

let to_list r = List.rev (fold (fun acc t -> t :: acc) [] r)

let ensure_index r col =
  if col < 0 || col >= arity r then
    invalid_arg (Printf.sprintf "Relation %s: no column %d" (name r) col);
  match r.indexes.(col) with
  | Some idx -> idx
  | None ->
    let idx = Value.Hashtbl.create (max 16 (cardinal r)) in
    Vec.iteri
      (fun row t -> if Vec.get r.live row then index_row idx row t col)
      r.tuples;
    r.indexes.(col) <- Some idx;
    idx

let warm_indexes r =
  for col = 0 to arity r - 1 do
    ignore (ensure_index r col)
  done

let lookup r ~col v =
  let idx = ensure_index r col in
  match Value.Hashtbl.find_opt idx v with
  | None -> []
  | Some p ->
    (* One backward pass consing onto the accumulator yields the rows in
       forward (insertion) order without the List.rev re-walk. *)
    let acc = ref [] in
    for i = Vec.length p.ids - 1 downto 0 do
      let row = Vec.get p.ids i in
      if Vec.get r.live row then acc := Vec.get r.tuples row :: !acc
    done;
    !acc

exception Found of Tuple.t

let find_matching r ~col v =
  let idx = ensure_index r col in
  match Value.Hashtbl.find_opt idx v with
  | None -> None
  | Some p -> (
    try
      Vec.iter
        (fun row ->
          if Vec.get r.live row then raise_notrace (Found (Vec.get r.tuples row)))
        p.ids;
      None
    with Found t -> Some t)

let iter_matching r ~col v f =
  let idx = ensure_index r col in
  match Value.Hashtbl.find_opt idx v with
  | None -> ()
  | Some p ->
    Vec.iter
      (fun row -> if Vec.get r.live row then f (Vec.get r.tuples row))
      p.ids

let count_matching r ~col v =
  let idx = ensure_index r col in
  match Value.Hashtbl.find_opt idx v with
  | None -> 0
  | Some p -> p.count

let posting_length r ~col v =
  let idx = ensure_index r col in
  match Value.Hashtbl.find_opt idx v with
  | None -> 0
  | Some p -> Vec.length p.ids

let version r = Atomic.get r.version

let inserts r = r.n_inserts

let deletes r = r.n_deletes

(* Number of non-empty buckets of [col]'s index — for col 0 this is
   maintained eagerly from the first insert. *)
let distinct_count r ~col =
  let idx = ensure_index r col in
  Value.Hashtbl.fold (fun _ p acc -> if p.count > 0 then acc + 1 else acc) idx 0

(* Expected rows per bucket of [col], used as the planner's compile-time
   cardinality estimate for an index access: live rows over non-empty
   buckets, rounded up.  Constants are abstracted out of plan shapes, so
   a per-value count cannot be baked in — the average bucket is the best
   shareable estimate. *)
let estimate_bucket r ~col =
  let n = cardinal r in
  if n = 0 then 0
  else begin
    let d = distinct_count r ~col in
    if d = 0 then 0 else (n + d - 1) / d
  end

let distinct_values r ~col =
  let idx = ensure_index r col in
  Value.Hashtbl.fold
    (fun v p acc -> if p.count > 0 then Value.Set.add v acc else acc)
    idx Value.Set.empty

let distinct_projection r ~cols =
  fold (fun acc t -> Tuple.Set.add (Tuple.project t cols) acc) Tuple.Set.empty r

let active_domain r =
  fold
    (fun acc t -> Array.fold_left (fun acc v -> Value.Set.add v acc) acc t)
    Value.Set.empty r

let pp ppf r =
  Format.fprintf ppf "@[<v>%a  -- %d tuples" Schema.pp r.schema (cardinal r);
  iter (fun t -> Format.fprintf ppf "@,  %a" Tuple.pp t) r;
  Format.fprintf ppf "@]"
