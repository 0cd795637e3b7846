open Relational
module Cquery = Coordination.Consistent_query

let movies_schema = Schema.make "M" [ "movie_id"; "cinema"; "movie" ]

let config =
  Cquery.make_config ~s_schema:movies_schema ~friends:"C" ~answer:"R"
    ~coord_attrs:[ 0 ] (* cinema *)

let chris = Value.Str "Chris"
let guy = Value.Str "Guy"
let jonny = Value.Str "Jonny"
let will = Value.Str "Will"

let make () =
  let db = Database.create () in
  let m = Database.create_table db movies_schema in
  List.iter
    (fun (id, cinema, movie) ->
      ignore (Relation.insert m [| Value.Int id; Value.Str cinema; Value.Str movie |]))
    [
      (1, "Regal", "Contagion");
      (2, "Regal", "Hugo");
      (3, "AMC", "Project X");
      (4, "AMC", "Hugo");
      (5, "Cinemark", "Hugo");
    ];
  let c = Database.create_table' db "C" [ "user"; "friend" ] in
  List.iter
    (fun (u, f) -> ignore (Relation.insert c [| u; f |]))
    [
      (chris, jonny); (chris, guy);
      (guy, chris); (guy, jonny);
      (jonny, chris); (jonny, will);
      (will, chris); (will, guy);
    ];
  let q_chris =
    Cquery.make config ~user:chris
      ~own:[ Cquery.Exact (Value.Str "Regal"); Cquery.Exact (Value.Str "Contagion") ]
      ~partners:[ Cquery.Named will ]
  in
  let q_guy =
    Cquery.make config ~user:guy
      ~own:[ Cquery.Exact (Value.Str "AMC"); Cquery.Exact (Value.Str "Project X") ]
      ~partners:[ Cquery.Any_friend ]
  in
  let q_of_hugo_fan user =
    Cquery.make config ~user
      ~own:[ Cquery.Any; Cquery.Exact (Value.Str "Hugo") ]
      ~partners:[ Cquery.Any_friend ]
  in
  (db, [ q_chris; q_guy; q_of_hugo_fan jonny; q_of_hugo_fan will ])
