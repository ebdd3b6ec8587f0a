(** The LSM-tree index: shard key → chunk locators (paper section 2.1).

    Mutations land in a volatile memtable. {!flush} serializes the
    memtable as sorted {!Run}s stored through the chunk store (the tree's
    own storage is chunks, Fig. 1) into level 0, then appends a metadata
    record (the per-level run-locator table) to the reserved metadata
    extents. An index entry's durability is the {e flush promise}: it
    persists only when both the covering run chunk and the covering
    metadata record are durable — and the run chunk's write depends on the
    entry's value chunks, so a durable index never references non-durable
    data.

    {b Levelled compaction.} Runs are organized into levels: level 0 holds
    raw flush output, newest first, with overlapping key ranges; every
    deeper level holds runs sorted by [min_key] with pairwise-{e disjoint}
    ranges. When level 0 reaches [l0_trigger] runs (or level [i] exceeds
    [level_ratio]{^ i} runs) {!compact} merges a victim run into the
    overlapping runs of the next level — a {e partial} compaction that
    rewrites only the overlap, keeping tombstones unless the target is the
    deepest populated level (see {!Run.merge}). [l0_trigger = 0] selects
    the monolithic mode: {!compact} merges every run into one generation,
    the pre-levelling behaviour kept as the write-amplification baseline.
    Old run chunks are orphaned for reclamation; reclamation calls back
    into {!update_locator} (shard chunks) and {!relocate_run} (the tree's
    own chunks) to keep references crash-consistently ordered ahead of the
    extent reset.

    {b Scans.} {!scan} returns a range's live entries as a sorted list: a
    k-way merge over the memtable and the in-range slice of every
    overlapping run.

    Fault site #3: metadata not flushed during shutdown after an extent
    reset. *)

type t

type error =
  | Chunk of Chunk.Chunk_store.error
  | Roll of Logroll.error
  | Corrupt of Util.Codec.error

val pp_error : Format.formatter -> error -> unit

(** True for extent-exhaustion errors that reclamation might cure. *)
val error_is_no_space : error -> bool

(** See {!Io_sched.error_class}. *)
val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

(** [create ?max_run_payload ?obs chunks ~metadata_extents] — runs are
    split so their serialized size stays at or below [max_run_payload]
    (default 16 KiB), keeping each run chunk small enough for its extent.
    The levelled compaction policy starts at [l0_trigger = 4] and
    [level_ratio = 4]; {!configure_levels} sets it. Metrics ([index.put],
    [index.flush], [index.run_bytes], coverage-linked [index.get.*] /
    [index.run_written] / [index.compact] / [index.compact.partial] /
    [index.scan], gauges [index.memtable_size] / [index.run_count] /
    [index.level_count]) land in [obs], defaulting to the chunk store's
    registry. *)
val create :
  ?max_run_payload:int ->
  ?obs:Obs.t ->
  Chunk.Chunk_store.t ->
  metadata_extents:int * int ->
  t

(** [configure_levels t ~l0_trigger ~level_ratio] resets the compaction
    policy knobs ([l0_trigger = 0] = monolithic; [level_ratio] clamped to
    >= 2). Affects future {!compact} calls only — the level structure
    itself is untouched. *)
val configure_levels : t -> l0_trigger:int -> level_ratio:int -> unit

(** The registry this index's metrics land in. *)
val obs : t -> Obs.t

(** [put t ~key ~locators ~value_dep] stages a mapping; [value_dep] must
    cover the writes of every locator's chunk. Returns the entry's
    dependency (value deps and the flush promise). *)
val put : t -> key:string -> locators:Chunk.Locator.t list -> value_dep:Dep.t -> Dep.t

(** [delete t ~key] stages a tombstone; returns its dependency. *)
val delete : t -> key:string -> Dep.t

(** [get t ~key] resolves through memtable, then level 0 newest-first,
    then at most one covering run per deeper level. *)
val get : t -> key:string -> (Chunk.Locator.t list option, error) result

(** [scan t ~lo ~hi] — the live entries with [lo <= key <= hi] ([None] =
    unbounded), in ascending key order: a k-way merge of the memtable and
    the in-range slice ({!Run.slice}) of every run whose recorded range
    overlaps, newest source first, tombstones merged away. Loads the
    overlapping runs in search order and counts [index.scan]. A full-range
    scan is the store's listing and reclamation's liveness pass. *)
val scan :
  t -> lo:string option -> hi:string option -> ((string * Chunk.Locator.t list) list, error) result

(** {2 Maintenance} *)

(** [flush t ~for_shutdown] writes the memtable as level-0 runs plus a
    metadata record and binds the flush promise. No-op on an empty
    memtable. *)
val flush : t -> for_shutdown:bool -> (Dep.t, error) result

(** [compact t] — levelled mode: runs every triggered partial step
    (victim run into the overlapping runs of the next level); when no
    trigger fires, pushes one run down so that repeated calls converge to
    a single fully-compacted level. Monolithic mode ([l0_trigger = 0]):
    merges every run into one generation. No-op with at most one run. *)
val compact : t -> (Dep.t, error) result

(** [compact_major t] merges every run into one generation, dropping
    tombstones, regardless of the levelling policy — the space-pressure
    escape hatch used by the store's garbage-collection ladder, where
    incremental levelled steps would churn fresh chunks faster than
    reclamation frees the superseded ones. *)
val compact_major : t -> (Dep.t, error) result

(** Whether a levelled trigger currently fires (level 0 at [l0_trigger],
    or some deeper level above [level_ratio]{^ i} runs). Always [false]
    in monolithic mode. *)
val compaction_due : t -> bool

(** Run count per level, deepest-trailing empties trimmed ([[]] when there
    are no runs). *)
val level_runs : t -> int list

(** [level_invariants t] checks the composed per-level discipline without
    IO: every level >= 1 sorted by [min_key] with pairwise-disjoint
    ranges, unique run ids below the id horizon, every memoized run's
    content matching its recorded range, and no memoized run that no level
    holds (runs are memoized only while a level holds them). [Error]
    carries a description of the first violation. *)
val level_invariants : t -> (unit, string) result

(** {2 Reclamation callbacks} *)

(** [update_locator t ~key ~old_loc ~new_loc ~new_dep] — reclamation
    callback for shard chunks: rewrites the entry so it references
    [new_loc]; returns a dependency persisting when the updated reference
    does. [Dep.trivial] when [key] no longer references [old_loc]. *)
val update_locator :
  t ->
  key:string ->
  old_loc:Chunk.Locator.t ->
  new_loc:Chunk.Locator.t ->
  new_dep:Dep.t ->
  Dep.t

(** Current runs in search order (level 0 newest first, then deeper
    levels), as (run id, locator). *)
val run_locators : t -> (int * Chunk.Locator.t) list

(** [relocate_run t ~run_id ~new_loc ~new_dep] — reclamation callback for
    the tree's own chunks: repoints the metadata at the evacuated run and
    appends a metadata record immediately. *)
val relocate_run :
  t -> run_id:int -> new_loc:Chunk.Locator.t -> new_dep:Dep.t -> (Dep.t, error) result

(** Dependency covering the index state visible right now (runs, newest
    metadata record, pending memtable flush); see {!Store_intf.INDEX}. *)
val basis_dep : t -> Dep.t

(** Mark that some extent was reset since the last flush (fault #3's
    trigger condition). *)
val note_extent_reset : t -> unit

(** [recover t] reloads the level table from the newest durable metadata
    record and empties volatile state. Metadata describing an ill-formed
    tree (overlapping or unordered ranges in a level >= 1, duplicate run
    ids) is rejected as [Corrupt]. *)
val recover : t -> (unit, error) result

val memtable_size : t -> int
val run_count : t -> int
