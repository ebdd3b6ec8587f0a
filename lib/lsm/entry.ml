open Util

type t =
  | Put of Chunk.Locator.t list
  | Tombstone

let equal a b =
  match a, b with
  | Tombstone, Tombstone -> true
  | Put l1, Put l2 -> List.length l1 = List.length l2 && List.for_all2 Chunk.Locator.equal l1 l2
  | (Put _ | Tombstone), _ -> false

let pp fmt = function
  | Tombstone -> Format.pp_print_string fmt "tombstone"
  | Put locs ->
    Format.fprintf fmt "put[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ";") Chunk.Locator.pp)
      locs

let encode w = function
  | Put locs ->
    Codec.Writer.u8 w 0;
    Codec.Writer.list w Chunk.Locator.encode locs
  | Tombstone -> Codec.Writer.u8 w 1

let encoded_size = function
  | Put locs -> 5 + (List.length locs * Chunk.Locator.encoded_size)
  | Tombstone -> 1

let decode r =
  let open Codec.Syntax in
  let* tag = Codec.Reader.u8 r in
  match tag with
  | 0 ->
    let+ locs = Codec.Reader.list ~max:(1 lsl 20) ~what:"locator" r Chunk.Locator.decode in
    Put locs
  | 1 -> Ok Tombstone
  | _ -> Error (Codec.Invalid "entry tag")
