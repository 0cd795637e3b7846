(* Seeded disk faults: crash simulation for the durability suite
   (test_durable.ml).  These are offline, replayable mutations of WAL
   bytes between a simulated crash and the recovery under test. *)

type kind =
  | Torn_write of { keep : int }
      (** the final append only partially reached the disk: the file is
          cut at an arbitrary byte inside the unprotected tail *)
  | Lost_tail of { keep : int }
      (** a partial fsync: everything after the last known-synced
          offset vanishes at once *)
  | Bit_flip of { offset : int; mask : int }
      (** silent media corruption of one byte *)

let pp ppf = function
  | Torn_write { keep } -> Format.fprintf ppf "torn write (keep %d)" keep
  | Lost_tail { keep } -> Format.fprintf ppf "lost tail (keep %d)" keep
  | Bit_flip { offset; mask } ->
    Format.fprintf ppf "bit flip (byte %d mask 0x%02x)" offset mask

(* A fault for a file of [size] bytes whose first [protect] bytes must
   stay intact: cut points and flips land in [[protect, size - 1]].
   Deterministic in the PRNG state. *)
let draw rng ~protect ~size =
  if size <= protect then invalid_arg "Disk_fault.draw: nothing to corrupt";
  match Prng.int rng 3 with
  | 0 -> Torn_write { keep = Prng.int_in_range rng ~lo:protect ~hi:(size - 1) }
  | 1 -> Lost_tail { keep = protect }
  | _ ->
    Bit_flip
      {
        offset = Prng.int_in_range rng ~lo:protect ~hi:(size - 1);
        mask = 1 lsl Prng.int rng 8;
      }

(* Mutilate the file in place. *)
let apply ~path kind =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let data =
    match kind with
    | Torn_write { keep } | Lost_tail { keep } ->
      String.sub data 0 (min keep (String.length data))
    | Bit_flip { offset; mask } ->
      if offset >= String.length data then data
      else
        String.mapi
          (fun i c -> if i = offset then Char.chr (Char.code c lxor mask) else c)
          data
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)
