(** Opaque chunk locators (paper section 2.1).

    A locator identifies one chunk: the extent, the byte offset of its
    frame, the frame length, and the extent {e epoch} at write time. The
    epoch makes locators single-use across extent resets: a stale locator
    into a recycled extent is detected instead of silently reading new
    data (the uniqueness assumption that reference-model issue #15 broke). *)

type t = {
  extent : int;
  epoch : int;
  off : int;
  frame_len : int;
}

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val encode : Util.Codec.Writer.t -> t -> unit

(** Bytes {!encode} writes for any locator: four [u64] fields. *)
val encoded_size : int

val decode : Util.Codec.Reader.t -> (t, Util.Codec.error) result
