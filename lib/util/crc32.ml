(* The table and the hot loop work on untagged native ints (the CRC fits in
   32 bits, so 63-bit ints hold every intermediate); boxed Int32 arithmetic
   here costs an allocation per operation and this loop runs over every
   byte the store reads or writes. The boundary stays int32.

   The table is built at module initialisation, before any domain can
   call [update]: a lazy table raises [CamlinternalLazy.Undefined] when
   two domains force it at once. *)

let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let update crc b off len =
  let t = table in
  let crc = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    crc := t.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes: slice out of bounds";
  update 0l b off len

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
