(** CRC-32 (IEEE 802.3 polynomial) for on-disk integrity checks.

    Data read back from the disk is treated as untrusted (paper section 7);
    every chunk frame and metadata record carries a CRC so corruption is
    detected rather than propagated, and every read verifies it. The loop
    is slicing-by-8 (Kounavis & Berry, ISCC 2005): eight bytes per step
    through eight precomputed tables, giving the same digests as the
    byte-at-a-time loop about four times faster. *)

(** [digest_bytes ?off ?len b] computes the CRC of the given slice
    (defaults: the whole buffer from [off]). Raises [Invalid_argument]
    when the slice is out of bounds. *)
val digest_bytes : ?off:int -> ?len:int -> bytes -> int32

(** [digest_string ?off ?len s] is {!digest_bytes} over a string slice,
    without copying it. *)
val digest_string : ?off:int -> ?len:int -> string -> int32
