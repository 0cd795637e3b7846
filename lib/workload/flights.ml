open Relational
module Cquery = Coordination.Consistent_query

let flights_schema = Schema.make "Flights" [ "fid"; "dest"; "day"; "src"; "airline" ]

let config =
  Cquery.make_config ~s_schema:flights_schema ~friends:"Friends" ~answer:"R"
    ~coord_attrs:[ 0; 1 ] (* dest, day *)

let install_flights db ~rows =
  Obs.with_span
    ~args:(fun () -> [ ("rows", Obs.Int rows) ])
    "workload.install_flights"
  @@ fun () ->
  let r = Database.create_table db flights_schema in
  for i = 0 to rows - 1 do
    ignore
      (Relation.insert r
         [|
           Value.Int i;
           Value.Str (Printf.sprintf "D%d" i);
           Value.Str (Printf.sprintf "Y%d" i);
           Value.Str (Printf.sprintf "S%d" (i mod 10));
           Value.Str (Printf.sprintf "A%d" (i mod 5));
         |])
  done;
  r

let user i = Value.Str (Printf.sprintf "p%d" i)

let install_complete_friends db ~users =
  Obs.with_span
    ~args:(fun () -> [ ("users", Obs.Int users) ])
    "workload.install_friends"
  @@ fun () ->
  let r = Database.create_table' db "Friends" [ "user"; "friend" ] in
  for i = 0 to users - 1 do
    for j = 0 to users - 1 do
      if i <> j then ignore (Relation.insert r [| user i; user j |])
    done
  done;
  r

let worst_case_queries ~users =
  List.init users (fun i ->
      Cquery.make config ~user:(user i)
        ~own:[ Cquery.Any; Cquery.Any; Cquery.Any; Cquery.Any ]
        ~partners:[ Cquery.Any_friend ])

let make_worst_case ~rows ~users =
  let db = Database.create () in
  ignore (install_flights db ~rows);
  ignore (install_complete_friends db ~users);
  (db, worst_case_queries ~users)

let constrained_queries rng ~users ~rows ~constrain_fraction =
  List.init users (fun i ->
      let pin () = Prng.float rng < constrain_fraction in
      let row = Prng.int rng rows in
      let dest =
        if pin () then Cquery.Exact (Value.Str (Printf.sprintf "D%d" row))
        else Cquery.Any
      in
      let src =
        if pin () then Cquery.Exact (Value.Str (Printf.sprintf "S%d" (row mod 10)))
        else Cquery.Any
      in
      Cquery.make config ~user:(user i)
        ~own:[ dest; Cquery.Any; src; Cquery.Any ]
        ~partners:[ Cquery.Any_friend ])
