(* Minor-heap allocation and latency of chain fires, in process.

     dune exec --profile release bench/chain_fires.exe

   Submits 32-query Listgen chains head first to one [Online] engine
   over the Slashdot-sized Posts table, the query shape of perfbench's
   [chains] workload, and measures only the submit that completes each
   chain (the fire), issued as [serve] issues it, with no witness: its
   minor words, whether a minor collection ran inside it, its wall
   time, and the engine's own split of it ([Online.stats] before and
   after): graph assembly and analysis, unification, grounding, the
   rest of the solve, the commit and the admission.  Every chain's
   other members arrive proven quiet and are not measured; a chain
   fires before the next starts, so all chains can reuse Listgen's user
   names.  Reports medians over 1,024 fires
   after 64 warm-up fires; a last line repeats the run on a fresh
   engine with the default witness ([Online.submit]'s [q<id>.x]
   assignment) and reports its words and time. *)

let len = 32
let warmup = 64
let fires = 1024

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  if Array.length a = 0 then nan else a.(Array.length a / 2)

let us ns = Int64.to_float ns /. 1e3

(* The engine's phases, as named in the report, from one [Stats.t]. *)
let phases (s : Coordination.Stats.t) =
  let rest =
    Int64.sub s.total_ns
      (Int64.add s.graph_ns (Int64.add s.unify_ns s.ground_ns))
  in
  [|
    us s.graph_ns; us s.unify_ns; us s.ground_ns; us rest; us s.commit_ns;
    us s.admit_ns;
  |]

let phase_names = [| "graph"; "unify"; "ground"; "rest"; "commit"; "admit" |]

(* [fires] measured fires of a fresh engine, each submitted with
   [witness]: per fire its minor words, its wall time, whether a minor
   collection ran inside it and the engine's split. *)
let measure ~witness =
  let db = Relational.Database.create () in
  ignore (Workload.Social.install_posts db);
  let engine = Coordination.Online.create db in
  let rng = Prng.create 1 in
  let words = Array.make fires 0. and us_fire = Array.make fires 0. in
  let collected = Array.make fires false in
  let split =
    Array.init (Array.length phase_names) (fun _ -> Array.make fires 0.)
  in
  for c = 0 to warmup + fires - 1 do
    let rec go = function
      | [ last ] ->
        let before = phases (Coordination.Online.stats engine) in
        let gcs0 = (Gc.quick_stat ()).minor_collections in
        let w0 = Gc.minor_words () in
        let t0 = Obs.now_ns () in
        let fired = Coordination.Online.submit ~witness engine last in
        let t1 = Obs.now_ns () in
        let w1 = Gc.minor_words () in
        let gcs1 = (Gc.quick_stat ()).minor_collections in
        (match fired with
        | Coordination.Online.Coordinated _ -> ()
        | _ -> failwith "chain_fires: the last arrival did not fire");
        let after = phases (Coordination.Online.stats engine) in
        let k = c - warmup in
        if k >= 0 then begin
          words.(k) <- w1 -. w0;
          us_fire.(k) <- us (Int64.sub t1 t0);
          collected.(k) <- gcs1 > gcs0;
          Array.iteri (fun p a -> a.(k) <- after.(p) -. before.(p)) split
        end
      | q :: rest ->
        ignore (Coordination.Online.submit ~witness engine q);
        go rest
      | [] -> ()
    in
    go (Workload.Listgen.queries rng ~n:len)
  done;
  (words, us_fire, collected, split)

let mean a = Array.fold_left ( +. ) 0. a /. float (Array.length a)

let () =
  let words, us_fire, collected, split = measure ~witness:false in
  let pick want =
    Array.of_list
      (List.filteri (fun k _ -> collected.(k) = want) (Array.to_list us_fire))
  in
  let with_gc = pick true and without_gc = pick false in
  Printf.printf
    "%d served fires of a %d-chain (no witness): minor words per fire %.0f \
     (median), %.0f (mean)\n"
    fires len (median words) (mean words);
  Printf.printf
    "fires with a minor collection: %d (%.1f%%); fire us median %.1f, with a \
     collection %.1f, without %.1f\n"
    (Array.length with_gc)
    (100. *. float (Array.length with_gc) /. float fires)
    (median us_fire) (median with_gc) (median without_gc);
  Printf.printf "engine split per fire, us median:%s\n"
    (String.concat ""
       (Array.to_list
          (Array.mapi
             (fun p name -> Printf.sprintf " %s %.1f" name (median split.(p)))
             phase_names)));
  let words, us_fire, _, _ = measure ~witness:true in
  Printf.printf
    "default-witness fires: minor words per fire %.0f (median), %.0f (mean); \
     fire us median %.1f\n"
    (median words) (mean words) (median us_fire)
