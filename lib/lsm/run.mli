(** Immutable sorted runs of the LSM tree.

    A run is the serialized form of one memtable flush (or compaction
    output): key-sorted [(key, entry)] pairs, stored as a single chunk via
    the chunk store, so the tree's own backing storage is subject to the
    same reclamation as shard data (paper Fig. 1). *)

type t

(** [of_pairs pairs] builds a run from pairs in strictly ascending key
    order (a memtable's bindings, or a merged run's pairs), taken as they
    are. Raises [Invalid_argument] on unsorted or duplicated keys. *)
val of_pairs : (string * Entry.t) list -> t

val length : t -> int
val is_empty : t -> bool

(** [find t key] — binary search. *)
val find : t -> string -> Entry.t option

(** [slice t ~lo ~hi] — the pairs with [lo <= key <= hi] ([None] =
    unbounded), in key order, found by the binary search behind {!find}.
    A range covering the whole run returns the run's own array, copying
    nothing; callers only read it. *)
val slice : t -> lo:string option -> hi:string option -> (string * Entry.t) array

(** All pairs in key order. *)
val to_list : t -> (string * Entry.t) list

(** [merge ~drop_tombstones newest_first] merges runs (head shadows tail).
    [drop_tombstones:true] is valid only when no older entry for any merged
    key can survive elsewhere — i.e. when merging into the {e deepest}
    populated level (or a full compaction). Partial levelled merges must
    pass [false]: a dropped tombstone there would resurrect an older value
    still sitting in a deeper run. *)
val merge : drop_tombstones:bool -> t list -> t

(** Smallest / largest key of the run ([None] when empty). *)
val min_key : t -> string option

val max_key : t -> string option

val encode : t -> string
val decode : string -> (t, Util.Codec.error) result
