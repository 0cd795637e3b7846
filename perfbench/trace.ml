(* Seeded, streamed request traces: the served benchmark's
   workloads.  A trace is a stream of server request frames (the wire
   format of [entangle serve]), produced one item at a time from the
   seed, so no run ever holds the whole trace in memory; the same seed
   always yields the same frames.  Ids count every request from 1, and
   pool ids are predicted from the submit count, which is exact because
   every submit of these traces is admitted. *)

open Relational
open Entangled
module Json = Server.Json

type workload = Chains | Market

let workload_of_string = function
  | "chains" -> Some Chains
  | "market" -> Some Market
  | _ -> None

(* One step of the closed loop: a single request, or a batch written
   back to back before any response is read (the seller's restock). *)
type item = One of Json.t | Pipelined of Json.t list

let requests = function One r -> [ r ] | Pipelined rs -> rs

(* How the server under test is configured: [entangle serve] defaults
   except what the traffic needs. *)
type shape = {
  posts : bool;  (** store is the paper's Posts table, loaded in process *)
  consume : bool;  (** fired sets book their tuples *)
  wal : bool;  (** WAL with fsync=never and serve's default snapshot cadence *)
  subscriber : bool;  (** a second connection drains [matched] pushes *)
  setup_items : int;  (** leading items that build the store over the wire *)
  warmup : int;  (** items served after set-up, before timing starts *)
  timed : int;  (** items timed *)
}

let market_flights = 64
let market_seats_per_kind = 32
let market_seats = 2 * market_flights * market_seats_per_kind
let fill_batch = 256

(* Request counts are fixed, not the run time, so memory and tail
   samples compare like with like across commits. *)
let shape = function
  | Chains ->
    {
      posts = true;
      consume = false;
      wal = false;
      subscriber = false;
      setup_items = 0;
      warmup = 1024;
      timed = 32_768;
    }
  | Market ->
    {
      posts = false;
      consume = true;
      wal = true;
      subscriber = true;
      setup_items = 1 + (market_seats / fill_batch);
      warmup = 1024;
      timed = 12_288;
    }

let posts_topics = 100

let str s = Term.Const (Value.Str s)

let answer u v = { Cq.rel = "R"; args = [| str u; v |] }

let query ~name ~post ~head body =
  Parser.query_to_string (Query.make ~name ~post ~head body)

(* The Listgen shape: [{R(partner, y)} R(me, x) :- Posts(x, t)]. *)
let posts_query ~name ~partner topic =
  query ~name
    ~post:(match partner with Some p -> [ answer p (Term.Var "y") ] | None -> [])
    ~head:[ answer name (Term.Var "x") ]
    [
      {
        Cq.rel = "Posts";
        args = [| Term.Var "x"; str (Workload.Social.topic topic) |];
      };
    ]

(* Market buyers book one seat each on the pair's flight: [a] a window
   seat, [b] an aisle seat, so a pair never demands the same tuple. *)
let seat_query ~name ~partner ~flight ~kind =
  query ~name
    ~post:[ answer partner (Term.Var "y") ]
    ~head:[ answer name (Term.Var "x") ]
    [ { Cq.rel = "Seats"; args = [| str flight; str kind; Term.Var "x" |] } ]

let flight k = Printf.sprintf "F%d" k

type gen = { next : unit -> item }

let counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let req next_id op fields =
  Json.Obj (("id", Json.Int (next_id ())) :: ("op", Json.Str op) :: fields)

let submit next_id src = req next_id "submit" [ ("query", Json.Str src) ]

(* chains: 16 interleaved Listgen chains of 32, head first; slot k's
   first chain is 2k shorter so the slots fire staggered and the pool
   stays near 16 x 16 entries instead of swinging between 0 and 512. *)
let chains_gen ~seed =
  let rng = Prng.create seed in
  let next_id = counter () in
  let slots = 16 and len = 32 in
  let chains = ref 0 in
  let fresh length =
    let c = !chains in
    incr chains;
    (c, ref 0, length)
  in
  let slot = Array.init slots (fun k -> fresh (len - (2 * k))) in
  let step = ref 0 in
  let next () =
    let k = !step mod slots in
    incr step;
    let c, pos, length = slot.(k) in
    let user i = Printf.sprintf "c%du%d" c i in
    let i = !pos in
    incr pos;
    if !pos = length then slot.(k) <- fresh len;
    One
      (submit next_id
         (posts_query ~name:(user i)
            ~partner:(if i < length - 1 then Some (user (i + 1)) else None)
            (Prng.int rng posts_topics)))
  in
  { next }

(* market: the store is built over the wire (create_table, then
   pipelined fills); buyer pair t submits a_t, then b_(t-64) arrives and
   books, or (one pair in 8) a_(t-64) retires instead.  After every 16
   bookings the seller restocks exactly the 32 seats they took, in one
   pipelined batch closed by a flush, so the live inventory stays at
   [market_seats] between restocks. *)
let market_gen ~seed =
  let rng = Prng.create seed in
  let next_id = counter () in
  let lag = 64 and restock_every = 16 in
  let queue = Queue.create () in
  let submits = ref 0 in
  let next_seat = ref 0 in
  let booked = ref [] in
  let t = ref 0 in
  let pending_items = Queue.create () in
  let seat_row f kind =
    let s = !next_seat in
    incr next_seat;
    req next_id "insert"
      [
        ("rel", Json.Str "Seats");
        ("tuple", Json.Arr [ Json.Str (flight f); Json.Str kind; Json.Int s ]);
      ]
  in
  (* Built in request order: list literals evaluate right to left. *)
  let batch rows =
    let acc = ref [] in
    List.iter (fun (f, kind) -> acc := seat_row f kind :: !acc) rows;
    List.rev !acc
  in
  let buyer_submit src =
    incr submits;
    submit next_id src
  in
  Queue.push
    (One
       (req next_id "create_table"
          [
            ("name", Json.Str "Seats");
            ( "attrs",
              Json.Arr [ Json.Str "flight"; Json.Str "kind"; Json.Str "seat" ]
            );
          ]))
    pending_items;
  let fills = ref 0 in
  let fill () =
    let per_flight = 2 * market_seats_per_kind in
    let first = !fills * fill_batch in
    incr fills;
    Pipelined
      (batch
         (List.init fill_batch (fun j ->
              let row = first + j in
              (row / per_flight, if row mod 2 = 0 then "W" else "A"))))
  in
  let pair_step () =
    let i = !t in
    incr t;
    let f = Prng.int rng market_flights in
    let retires = Prng.int rng 8 = 0 in
    Queue.push (i, f, retires, !submits) queue;
    Queue.push
      (One
         (buyer_submit
            (seat_query
               ~name:(Printf.sprintf "a%d" i)
               ~partner:(Printf.sprintf "b%d" i)
               ~flight:(flight f) ~kind:"W")))
      pending_items;
    if i >= lag then begin
      let j, fj, retired, pool_id = Queue.pop queue in
      if retired then
        Queue.push
          (One (req next_id "retire" [ ("pool_id", Json.Int pool_id) ]))
          pending_items
      else begin
        Queue.push
          (One
             (buyer_submit
                (seat_query
                   ~name:(Printf.sprintf "b%d" j)
                   ~partner:(Printf.sprintf "a%d" j)
                   ~flight:(flight fj) ~kind:"A")))
          pending_items;
        booked := fj :: !booked;
        if List.length !booked = restock_every then begin
          let flights = List.rev !booked in
          booked := [];
          let inserts =
            batch (List.concat_map (fun f -> [ (f, "W"); (f, "A") ]) flights)
          in
          Queue.push
            (Pipelined (inserts @ [ req next_id "flush" [] ]))
            pending_items
        end
      end
    end
  in
  let next () =
    if not (Queue.is_empty pending_items) then Queue.pop pending_items
    else if !fills < market_seats / fill_batch then fill ()
    else begin
      pair_step ();
      Queue.pop pending_items
    end
  in
  { next }

let make w ~seed =
  match w with
  | Chains -> chains_gen ~seed
  | Market -> market_gen ~seed

(* The Posts table as wire frames, so a dumped chains trace
   replays against an empty [entangle serve]. *)
let posts_frames emit =
  let frame op fields = Json.Obj (("op", Json.Str op) :: fields) in
  emit
    (frame "create_table"
       [
         ("name", Json.Str "Posts");
         ("attrs", Json.Arr [ Json.Str "pid"; Json.Str "topic" ]);
       ]);
  for pid = 0 to Workload.Social.slashdot_row_count - 1 do
    emit
      (frame "insert"
         [
           ("rel", Json.Str "Posts");
           ( "tuple",
             Json.Arr
               [
                 Json.Int pid;
                 Json.Str (Workload.Social.topic (pid mod posts_topics));
               ] );
         ])
  done
