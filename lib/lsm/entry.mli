(** Index entries: the value side of the shard-id → chunk-locators mapping
    (paper section 2.1 — shard data lives outside the tree, WiscKey-style,
    so entries hold locator lists, not data). *)

type t =
  | Put of Chunk.Locator.t list  (** chunks holding the shard, in order *)
  | Tombstone  (** the shard was deleted *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val encode : Util.Codec.Writer.t -> t -> unit

(** [encoded_size e] is the number of bytes [encode] writes for [e],
    without encoding it. *)
val encoded_size : t -> int

val decode : Util.Codec.Reader.t -> (t, Util.Codec.error) result
