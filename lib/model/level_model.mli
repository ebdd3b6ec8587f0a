(** Composed per-level reference model of the levelled LSM index.

    A pure value model of {!Lsm.Index}'s levelled compaction discipline:
    a memtable map on top of a list of levels, level 0 newest-first and
    possibly overlapping, every level [i >= 1] sorted by min key with
    pairwise-disjoint ranges. Flush, partial compaction (victim into the
    overlapping runs of the next level), monolithic compaction and the
    tombstone-dropping rule (only when merging into the deepest populated
    level) mirror the real index's policy, so observations — [get] and
    [scan] — must agree with it after any operation sequence.

    Run {e boundaries} are not modelled bit-for-bit (the real index splits
    flushes by payload budget); only observable equality and the per-level
    invariants are contractual. The conformance properties in
    [test/test_lsm.ml] and [test/test_store.ml] drive both sides with the
    same operations and compare. *)

type t

(** [create ?l0_trigger ?level_ratio ()] — an empty model.
    [l0_trigger = 0] selects monolithic full-merge compaction;
    [level_ratio] is clamped to [>= 2]. Defaults match
    {!Lsm.Index.create}. *)
val create : ?l0_trigger:int -> ?level_ratio:int -> unit -> t

val configure_levels : t -> l0_trigger:int -> level_ratio:int -> unit

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

val get : t -> key:string -> string option

(** Live [(key, value)] pairs with [lo <= key <= hi] ([None] unbounded),
    ascending. *)
val scan : t -> lo:string option -> hi:string option -> (string * string) list

val memtable_size : t -> int
val run_count : t -> int

(** Run count per level, trailing empty levels trimmed. *)
val level_runs : t -> int list

val compaction_due : t -> bool

(** The composed per-level discipline on the model's own state. *)
val invariants : t -> (unit, string) result
