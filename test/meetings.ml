(* Meeting scheduling — the introduction's "professionals scheduling
   joint meetings".

   A [Slots(slotId, day, hour, room)] table lists bookable meeting
   slots; professionals coordinate on the day and hour (the room is
   personal — video links exist).  A {e committee} is a group whose
   members must all meet: each member names every other member as a
   coordination partner, so the committee forms a clique in the
   coordination graph.  When committees share a member, their cliques
   connect and the whole component must settle on one (day, hour).

   A test fixture: only the consistent-coordination cases in
   test_workload.ml use it. *)

open Relational
module Cquery = Coordination.Consistent_query

let slots_schema = Schema.make "Slots" [ "slotId"; "day"; "hour"; "room" ]

let config =
  Cquery.make_config ~s_schema:slots_schema ~friends:"Colleagues" ~answer:"R"
    ~coord_attrs:[ 0; 1 ] (* day, hour *)

let install_slots db ~days ~hours ~rooms =
  let r = Database.create_table db slots_schema in
  let id = ref 0 in
  for d = 0 to days - 1 do
    for h = 0 to hours - 1 do
      for k = 0 to rooms - 1 do
        ignore
          (Relation.insert r
             [|
               Value.Int !id;
               Value.Str (Printf.sprintf "d%d" d);
               Value.Str (Printf.sprintf "h%d" h);
               Value.Str (Printf.sprintf "r%d" k);
             |]);
        incr id
      done
    done
  done;
  r

let committee_queries ?(pins = []) committees =
  List.iter
    (fun c ->
      if List.length c < 2 then
        invalid_arg "Meetings.committee_queries: committee needs >= 2 members")
    committees;
  (* member -> union of colleagues across all her committees *)
  let colleagues : Value.Set.t Value.Map.t ref = ref Value.Map.empty in
  List.iter
    (fun committee ->
      List.iter
        (fun m ->
          let others =
            List.filter (fun o -> not (Value.equal o m)) committee
          in
          let prev =
            Option.value ~default:Value.Set.empty
              (Value.Map.find_opt m !colleagues)
          in
          colleagues :=
            Value.Map.add m
              (List.fold_left (fun s o -> Value.Set.add o s) prev others)
              !colleagues)
        committee)
    committees;
  Value.Map.fold
    (fun member others acc ->
      let day =
        match List.assoc_opt member pins with
        | Some d -> Cquery.Exact (Value.Str (Printf.sprintf "d%d" d))
        | None -> Cquery.Any
      in
      let partners =
        List.map (fun o -> Cquery.Named o) (Value.Set.elements others)
      in
      Cquery.make config ~user:member
        ~own:[ day; Cquery.Any; Cquery.Any ]
        ~partners
      :: acc)
    !colleagues []
  |> List.rev
