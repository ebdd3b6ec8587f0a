open Util

type t = {
  extent : int;
  epoch : int;
  off : int;
  frame_len : int;
}

let equal a b =
  a.extent = b.extent && a.epoch = b.epoch && a.off = b.off && a.frame_len = b.frame_len

let compare = Stdlib.compare

let pp fmt t = Format.fprintf fmt "loc{e%d@%d+%d,epoch %d}" t.extent t.off t.frame_len t.epoch

let encoded_size = 32

let encode w t =
  Codec.Writer.uint w t.extent;
  Codec.Writer.uint w t.epoch;
  Codec.Writer.uint w t.off;
  Codec.Writer.uint w t.frame_len

let decode r =
  let open Codec.Syntax in
  let* extent = Codec.Reader.uint r in
  let* epoch = Codec.Reader.uint r in
  let* off = Codec.Reader.uint r in
  let+ frame_len = Codec.Reader.uint r in
  { extent; epoch; off; frame_len }
