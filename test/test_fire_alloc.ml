(* Allocation regression: the minor words one 32-chain fire allocates
   through [Online.submit], a count that does not depend on timing,
   both with the default witness and as [serve] fires ([~witness:false]).
   Chains arrive head first over a small Posts-shaped table, as in
   bench/chain_fires.exe and perfbench's [chains] workload; only the
   submit that completes each chain is counted. *)

open Relational
open Coordination

let len = 32
let warmup = 8
let fires = 64

(* Mean minor words of a fire, measured in the default (dev) profile on
   OCaml 5.1.1: 9,379, since a fire renames no member and unifies over
   member-local slots.  The bound leaves about 15% on top. *)
let bound = 10_800.

(* The same fire as [serve] issues it, building no [q<id>.x] witness
   map: mean 6,479 words in the same profile.  The bound leaves about
   15% on top. *)
let served_bound = 7_450.

let mean_words_per_fire ~witness =
  let db = Database.create () in
  ignore (Workload.Social.install_posts ~rows:2_000 db);
  let engine = Online.create db in
  let rng = Prng.create 3 in
  let total = ref 0. in
  for c = 0 to warmup + fires - 1 do
    let rec go = function
      | [ last ] ->
        let w0 = Gc.minor_words () in
        let fired = Online.submit ~witness engine last in
        let w1 = Gc.minor_words () in
        (match fired with
        | Online.Coordinated _ -> ()
        | _ -> Alcotest.fail "the chain's last arrival did not fire");
        if c >= warmup then total := !total +. (w1 -. w0)
      | q :: rest ->
        ignore (Online.submit ~witness engine q);
        go rest
      | [] -> ()
    in
    go (Workload.Listgen.queries rng ~n:len)
  done;
  !total /. float fires

let test_words_per_fire ~witness bound () =
  let words = mean_words_per_fire ~witness in
  if words > bound then
    Alcotest.failf "a 32-chain fire allocates %.0f minor words, above %.0f"
      words bound

let suite =
  [
    Alcotest.test_case "a 32-chain fire's minor words" `Quick
      (test_words_per_fire ~witness:true bound);
    Alcotest.test_case "a served 32-chain fire's minor words" `Quick
      (test_words_per_fire ~witness:false served_bound);
  ]
