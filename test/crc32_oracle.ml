(* Reference CRC-32 for [Durable.Crc32]: the OCaml slicing-by-8 the WAL
   and snapshot checksums were first computed with.  [Durable] now calls
   one C function (durable_io.c), which the snapshot writer thread also
   runs; test_durable checks the two agree on random byte ranges and on
   a real snapshot image. *)

(* [tables.(k * 256 + b)] is the CRC of byte [b] followed by [k] zero
   bytes, so one step folds eight bytes with eight independent lookups. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let p = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (p lsr 8) lxor t.(p land 0xff)
       done
     done;
     t)

let bytes ?(crc = 0) b off len =
  let t = Lazy.force tables in
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32_oracle.bytes";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off and stop = off + len in
  while !i + 8 <= stop do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t.((!c lxor Char.code (Bytes.get b !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
