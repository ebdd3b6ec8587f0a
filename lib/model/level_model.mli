(** Composed per-level reference model of the levelled LSM index.

    A pure value model of {!Lsm.Index}'s levelled compaction discipline:
    a memtable map on top of a list of levels, level 0 newest-first and
    possibly overlapping, every level [i >= 1] sorted by min key with
    pairwise-disjoint ranges. Flush, partial compaction (victim into the
    overlapping runs of the next level), monolithic compaction and the
    tombstone-dropping rule (only when merging into the deepest populated
    level) mirror the real index's policy, so its [scan] must agree with
    the index's after any operation sequence.

    Run {e boundaries} are not modelled bit-for-bit (the real index splits
    flushes by payload budget); only observable equality and the per-level
    invariants are contractual. The conformance properties in
    [test/test_lsm.ml] and [test/test_store.ml] drive both sides with the
    same operations, compare scans and check {!invariants} after every
    step. *)

type t

(** [create ?l0_trigger ?level_ratio ()] — an empty model.
    [l0_trigger = 0] selects monolithic full-merge compaction;
    [level_ratio] is clamped to [>= 2]. Defaults match the policy a fresh
    {!Lsm.Index} starts with. *)
val create : ?l0_trigger:int -> ?level_ratio:int -> unit -> t

(** {2 Mutations} *)

val put : t -> key:string -> value:string -> unit
val delete : t -> key:string -> unit

(** Move the memtable (if non-empty) into a fresh level-0 run. *)
val flush : t -> unit

(** One maintenance round, mirroring {!Lsm.Index.compact}: drain trigger
    violations with partial steps; when quiescent, push the lowest
    populated level's next victim down one level; no-op at [<= 1] run. *)
val compact : t -> unit

(** {2 Observations} *)

(** Live [(key, value)] pairs with [lo <= key <= hi] ([None] unbounded),
    ascending. *)
val scan : t -> lo:string option -> hi:string option -> (string * string) list

(** The composed per-level discipline on the model's own state. *)
val invariants : t -> (unit, string) result
