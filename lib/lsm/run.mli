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

(** All pairs in key order. *)
val to_list : t -> (string * Entry.t) list

(** [iter f t] calls [f key entry] on every pair in key order. *)
val iter : (string -> Entry.t -> unit) -> t -> unit

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

(** [replace_locator t ~key ~old_loc ~new_loc] — a copy with one locator
    substituted, or [None] if [key]'s entry does not reference [old_loc]. *)
val replace_locator :
  t -> key:string -> old_loc:Chunk.Locator.t -> new_loc:Chunk.Locator.t -> t option

val encode : t -> string
val decode : string -> (t, Util.Codec.error) result
