(* The benchmark's own in-process client: it writes request frames that
   were encoded before the timed interval began and hands back raw
   response payloads, which are decoded after the interval ends, so
   neither client-side encoding nor decoding is billed to the server.
   Same framing as [entangle serve]: a 4-byte big-endian length, then
   one JSON object. *)

let frame json =
  let payload = Server.Json.to_string json in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (* inbound bytes [start, stop) *)
  mutable start : int;
  mutable stop : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 65536; start = 0; stop = 0; bytes_in = 0; bytes_out = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Write all of [data]; [stall] runs when the socket buffer is full, so
   the single benchmark thread can let the server drain it. *)
let send ?(stall = fun () -> ()) c data =
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring c.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        stall ();
        go off
  in
  go 0;
  c.bytes_out <- c.bytes_out + len

(* Read whatever is readable now, without blocking. *)
let fill c =
  let rec go () =
    if c.stop = Bytes.length c.buf then begin
      let live = c.stop - c.start in
      let nb =
        if live * 2 > Bytes.length c.buf then Bytes.create (2 * Bytes.length c.buf)
        else c.buf
      in
      Bytes.blit c.buf c.start nb 0 live;
      c.buf <- nb;
      c.start <- 0;
      c.stop <- live
    end;
    match Unix.read c.fd c.buf c.stop (Bytes.length c.buf - c.stop) with
    | 0 -> ()
    | n ->
      c.stop <- c.stop + n;
      c.bytes_in <- c.bytes_in + n;
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* The next complete frame's payload, if one is buffered. *)
let take c =
  let live = c.stop - c.start in
  if live < 4 then None
  else
    let n = Int32.to_int (Bytes.get_int32_be c.buf c.start) in
    if live < 4 + n then None
    else begin
      let payload = Bytes.sub_string c.buf (c.start + 4) n in
      c.start <- c.start + 4 + n;
      if c.start = c.stop then begin
        c.start <- 0;
        c.stop <- 0
      end;
      Some payload
    end

(* Count and drop complete frames without decoding them (the
   subscriber's batched drain); returns the frame count. *)
let skip_frames c =
  let rec go k =
    let live = c.stop - c.start in
    if live < 4 then k
    else
      let n = Int32.to_int (Bytes.get_int32_be c.buf c.start) in
      if live < 4 + n then k
      else begin
        c.start <- c.start + 4 + n;
        go (k + 1)
      end
  in
  let k = go 0 in
  if c.start = c.stop then begin
    c.start <- 0;
    c.stop <- 0
  end;
  k
