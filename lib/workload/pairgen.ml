open Relational
open Entangled

let answer_atom u v = { Cq.rel = "R"; args = [| Term.Const u; v |] }

let posts_atom ~var topic =
  { Cq.rel = "Posts"; args = [| Term.Var var; Term.Const (Value.Str topic) |] }

(* A topic guaranteed absent: Social.topic only emits "t<i>". *)
let missing_topic = "t-missing"

let make ?rows ?(topics = 100) ?(p_unsat = 0.) ~seed n =
  Obs.with_span
    ~args:(fun () -> [ ("n", Obs.Int n); ("topics", Obs.Int topics) ])
    "workload.pairgen"
  @@ fun () ->
  let rng = Prng.create seed in
  let db = Database.create () in
  ignore (Social.install_posts ?rows ~topics db);
  let topic () = Social.topic (Prng.int rng topics) in
  let queries =
    List.concat
      (List.init n (fun i ->
           let ua = Value.Str (Printf.sprintf "a%d" i) in
           let ub = Value.Str (Printf.sprintf "b%d" i) in
           let unsat = p_unsat > 0. && Prng.float rng < p_unsat in
           let topic_a = if unsat then missing_topic else topic () in
           let qa =
             Query.make
               ~name:(Printf.sprintf "a%d" i)
               ~post:[ answer_atom ub (Term.Var "y") ]
               ~head:[ answer_atom ua (Term.Var "x") ]
               [ posts_atom ~var:"x" topic_a ]
           in
           let qb =
             Query.make
               ~name:(Printf.sprintf "b%d" i)
               ~post:[ answer_atom ua (Term.Var "y") ]
               ~head:[ answer_atom ub (Term.Var "x") ]
               [ posts_atom ~var:"x" (topic ()) ]
           in
           [ qa; qb ]))
  in
  (db, queries)
