open Relational
open Entangled

let user i = Value.Str (Printf.sprintf "u%d" i)

let answer_atom u v = { Cq.rel = "R"; args = [| Term.Const u; v |] }

let body_atom rng ~topics =
  {
    Cq.rel = "Posts";
    args = [| Term.Var "x"; Term.Const (Value.Str (Social.topic (Prng.int rng topics))) |];
  }

let queries ?(topics = 100) rng ~n =
  Obs.with_span
    ~args:(fun () -> [ ("n", Obs.Int n); ("topics", Obs.Int topics) ])
    "workload.list_queries"
  @@ fun () ->
  List.init n (fun i ->
      let post =
        if i < n - 1 then [ answer_atom (user (i + 1)) (Term.Var "y") ] else []
      in
      Query.make
        ~name:(Printf.sprintf "u%d" i)
        ~post
        ~head:[ answer_atom (user i) (Term.Var "x") ]
        [ body_atom rng ~topics ])

let make ?rows ?(topics = 100) ~seed n =
  let rng = Prng.create seed in
  let db = Database.create () in
  ignore (Social.install_posts ?rows ~topics db);
  (db, queries ~topics rng ~n)
