(* The introduction's class-enrollment scenario: "college students
   coordinating which classes to take" / "enrolling in a class which one
   of your friends is also taking".

   Students coordinate on the course; the section (and thus the time
   slot) is personal.  Alice insists on TWO friends in the same course —
   the k-of-friends requirement of Section 5's Generalizations, which is
   not even expressible as an entangled query; the consistent algorithm
   handles it anyway.  We solve once sequentially and once with the
   parallel value loop (the Section 6.2 future-work enhancement), then
   replay the flight scenario through the online engine (Section 7). *)

open Relational
module Cquery = Coordination.Consistent_query

let v = Value.str

let sections_schema = Schema.make "Sections" [ "secId"; "course"; "slot" ]

let config =
  Cquery.make_config ~s_schema:sections_schema ~friends:"Friends" ~answer:"R"
    ~coord_attrs:[ 0 ] (* the course *)

let () =
  let db = Database.create () in
  let sections = Database.create_table db sections_schema in
  List.iteri
    (fun i (course, slot) ->
      ignore (Relation.insert sections [| Value.Int (100 + i); v course; v slot |]))
    [
      ("Databases", "Mon9"); ("Databases", "Wed14");
      ("Compilers", "Tue10"); ("Compilers", "Thu16");
      ("Crypto", "Fri11");
    ];
  let friends = Database.create_table' db "Friends" [ "user"; "friend" ] in
  List.iter
    (fun (a, b) ->
      ignore (Relation.insert friends [| v a; v b |]);
      ignore (Relation.insert friends [| v b; v a |]))
    [ ("alice", "bob"); ("alice", "carol"); ("bob", "carol"); ("carol", "dave") ];

  let student user ?course partners =
    let course =
      match course with Some c -> Cquery.Exact (v c) | None -> Cquery.Any
    in
    Cquery.make config ~user:(v user) ~own:[ course; Cquery.Any ] ~partners
  in
  let queries =
    [
      student "alice" [ Cquery.K_friends 2 ];
      student "bob" ~course:"Databases" [ Cquery.Any_friend ];
      student "carol" [ Cquery.Any_friend ];
      student "dave" ~course:"Crypto" [ Cquery.Any_friend ];
    ]
  in
  Format.printf "Students:@.";
  List.iter (fun q -> Format.printf "%a@." (Cquery.pp config) q) queries;

  (match Coordination.Consistent.solve db config queries with
  | Error e -> Format.printf "error: %a@." Coordination.Consistent.pp_error e
  | Ok outcome ->
    Format.printf "@.Per-course surviving sets:@.";
    List.iter
      (fun (value, size) ->
        Format.printf "  %-10s -> %d student(s)@." (Value.to_string value.(0)) size)
      outcome.candidates;
    (match outcome.chosen_value with
    | None -> Format.printf "nobody can enroll together@."
    | Some value ->
      Format.printf "@.Everyone signs up for %s:@." (Value.to_string value.(0));
      List.iter
        (fun (user, key) ->
          Format.printf "  %-6s -> section %s@." (Value.to_string user)
            (Value.to_string key))
        outcome.choices));

  (* The same instance through the parallel value loop. *)
  (match Coordination.Executor.solve_consistent ~domains:4 db config queries with
  | Error e -> Format.printf "error: %a@." Coordination.Consistent.pp_error e
  | Ok outcome ->
    Format.printf "@.Parallel solve (4 domains) agrees: %s, %d members@."
      (match outcome.chosen_value with
      | Some value -> Value.to_string value.(0)
      | None -> "-")
      (List.length outcome.members));

  (* Online coordination: queries trickle in; sets fire as soon as they
     can (Section 6.1's system flow / Section 7's online setting). *)
  Format.printf "@.-- Online flight coordination --@.";
  let fdb = Database.create () in
  ignore (Database.create_table' fdb "Flights" [ "fid"; "dest" ]);
  Database.insert fdb "Flights" [ Value.Int 101; v "Zurich" ];
  Database.insert fdb "Flights" [ Value.Int 200; v "Paris" ];
  let engine = Coordination.Online.create fdb in
  let parse = Entangled.Parser.parse_query in
  let stream =
    [
      "query gwyneth: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich).";
      "query will:    { R(Chris, w) } R(Will, w) :- Flights(w, Zurich).";
      "query chris:   { } R(Chris, y) :- Flights(y, Zurich).";
    ]
  in
  List.iter
    (fun src ->
      let q = parse src in
      match Coordination.Online.submit engine q with
      | Coordinated c ->
        Format.printf "  %-8s arrives -> fires {%s}@." q.Entangled.Query.name
          (String.concat ", "
             (List.map (fun q -> q.Entangled.Query.name) c.queries))
      | Pending -> Format.printf "  %-8s arrives -> pending@." q.Entangled.Query.name
      | Rejected_unsafe _ ->
        Format.printf "  %-8s arrives -> rejected (unsafe)@."
          q.Entangled.Query.name)
    stream;
  Format.printf "  still pending: [%s]@."
    (String.concat ", "
       (List.map
          (fun q -> q.Entangled.Query.name)
          (Coordination.Online.pending engine)))
