(* Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight derived tables let
   the loop consume eight bytes per step with eight independent lookups
   instead of eight dependent ones. Table k, at index n, is the CRC
   contribution of byte n followed by k zero bytes; table 0 is the
   classic byte-at-a-time table, which also finishes the tail.

   The tables and the hot loop work on untagged native ints (the CRC fits
   in 32 bits, so 63-bit ints hold every intermediate); boxed Int32
   arithmetic here costs an allocation per operation and this loop runs
   over every byte the store reads or writes. The boundary stays int32.

   The tables are built at module initialisation, before any domain can
   call [update]: a lazy table raises [CamlinternalLazy.Undefined] when
   two domains force it at once. *)

(* Eight 256-entry tables, table k at [k * 256]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit word at [i] as a non-negative int; the caller has
   checked the bounds. *)
let word b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFFFFFF

let update crc b off len =
  let t = tables in
  let crc = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let stop8 = off + (len land lnot 7) in
  let i = ref off in
  while !i < stop8 do
    let lo = word b !i lxor !crc and hi = word b (!i + 4) in
    crc :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for i = stop8 to off + len - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32: slice out of bounds";
  update 0l b off len

let digest_string ?off ?len s = digest_bytes ?off ?len (Bytes.unsafe_of_string s)
