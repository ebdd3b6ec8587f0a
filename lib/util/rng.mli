(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every source of randomness in the repository flows through this module so
    that test executions are replayable from a single integer seed, which is
    what makes property-based counterexamples reproducible and minimizable
    (paper section 4.3 requires deterministic components).

    {b Seed/determinism contract}: [create seed] yields a stream that is a
    pure function of [seed] — equal seeds, equal streams, on any machine.
    The parallel runner ([lib/par]) leans on this: each worker task builds a
    private generator from its own seed, so sharding a seed range across
    domains draws exactly the values the sequential loop would. A [t] is a
    mutable cursor and is {e not} domain-safe — never share one across
    domains; give each task its own via {!create} or {!split}.

    {b Allocation}: the 64-bit state is kept unboxed (8 bytes read and
    written in place), so advancing it allocates nothing: {!int}, {!bool},
    {!chance} and {!shuffle} allocate nothing, and {!int64} and {!float}
    allocate only the boxed result they return when the call is not
    inlined. The stream is the splitmix64 stream every seed has always
    yielded; [test_util] pins its first values. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** [of_int seed] is [create (Int64.of_int seed)]. *)
val of_int : int -> t

(** [copy t] duplicates the generator state. *)
val copy : t -> t

(** [split t] derives an independent generator and advances [t]. *)
val split : t -> t

(** [int64 t] is the next raw 64-bit value. *)
val int64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)
val int_in : t -> int -> int -> int

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [chance t p] is true with probability [p] (clamped to [0,1]). *)
val chance : t -> float -> bool

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [bytes t n] is [n] random bytes. *)
val bytes : t -> int -> bytes

(** [pick t arr] is a uniformly chosen element. Requires a non-empty array. *)
val pick : t -> 'a array -> 'a

(** [pick_list t xs] is a uniformly chosen element. Requires a non-empty
    list. *)
val pick_list : t -> 'a list -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [weighted t choices] picks among [(weight, value)] pairs with probability
    proportional to weight. Requires at least one positive weight. *)
val weighted : t -> (int * 'a) list -> 'a
