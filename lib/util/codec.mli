(** Total binary encoders and decoders.

    Every on-disk and on-wire format in the repository is built from these
    primitives. Decoding never raises: a truncated or corrupt input yields
    [Error], reproducing the paper's panic-freedom requirement for
    deserializers running on untrusted bytes (section 7).

    Every length-prefixed list is written by {!Writer.list} and read by
    {!Reader.list}: a count (a u32 unless the format passes another
    width), then the elements in order. The reader bounds the count
    before decoding any element, so a corrupt count cannot drive a large
    allocation. *)

type error =
  | Truncated of { wanted : int; available : int }
  | Bad_magic of { expected : string; found : string }
  | Bad_checksum
  | Invalid of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** [equal_sub s i t j n] compares [s] from [i] and [t] from [j] over [n]
    bytes, in place. Both ranges must lie inside their strings. *)
val equal_sub : string -> int -> string -> int -> int -> bool

(** Append-only encoder on top of [Buffer]. *)
module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u64 : t -> int64 -> unit

  (** [uint t n] encodes a non-negative OCaml int as a u64. *)
  val uint : t -> int -> unit

  val raw_string : t -> string -> unit

  (** [lstring t s] encodes a u32 length prefix followed by the bytes. *)
  val lstring : t -> string -> unit

  (** [list ?count t f xs] writes [List.length xs] with [count] (default
      a u32), then each element with [f]. *)
  val list : ?count:(t -> int -> unit) -> t -> (t -> 'a -> unit) -> 'a list -> unit

  val contents : t -> string
end

(** Cursor-based decoder over an immutable string; all reads are total.
    Fixed-width fields ([u8] to [u64], [uint], [magic], [skip]) are read
    in place without copying; only [raw] and [lstring] allocate the bytes
    they return. *)
module Reader : sig
  type t

  val of_string : ?pos:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> (int, error) result
  val u16 : t -> (int, error) result
  val u32 : t -> (int32, error) result
  val u64 : t -> (int64, error) result

  (** [uint t] decodes a u64 and checks it fits a non-negative OCaml int. *)
  val uint : t -> (int, error) result

  val raw : t -> int -> (string, error) result

  (** [skip t n] consumes [n] bytes without copying them; it fails as
      [raw t n] would. *)
  val skip : t -> int -> (unit, error) result

  (** [lstring ?max t] decodes a u32-length-prefixed string, rejecting
      lengths above [max] (default 1 GiB) to bound allocation on corrupt
      input. *)
  val lstring : ?max:int -> t -> (string, error) result

  (** [list ?count ~max ~what t f] reads what {!Writer.list} wrote, with
      the writer's [count]. A count outside [\[0, max\]] fails as
      [Invalid (what ^ " count")]; the first element [f] fails on fails
      the list. *)
  val list :
    ?count:(t -> (int, error) result) -> max:int -> what:string -> t ->
    (t -> ('a, error) result) -> ('a list, error) result

  (** [magic t expected] consumes [String.length expected] bytes and checks
      them. *)
  val magic : t -> string -> (unit, error) result

  (** [expect_end t] fails with [Invalid] if bytes remain. *)
  val expect_end : t -> (unit, error) result
end

(** [let*] syntax for result-typed decoding pipelines. *)
module Syntax : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
  val ( let+ ) : ('a, 'e) result -> ('a -> 'b) -> ('b, 'e) result
end
