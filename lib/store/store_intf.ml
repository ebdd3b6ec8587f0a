(** Signature of the index component as the store consumes it.

    Both the real LSM-tree index ({!Lsm.Index}) and the reference-model
    mock ({!Model.Index_mock}) implement this, which is how the reference
    models do double duty as mocks for unit tests (paper section 3.2). *)

module type INDEX = sig
  type t
  type error

  val pp_error : Format.formatter -> error -> unit

  (** True when the error is extent exhaustion that garbage collection
      (reclaim/compact) might cure; the store retries flushes on it. *)
  val error_is_no_space : error -> bool

  (** Retry/health classification of the error, forwarded up through the
      store's [error_class] to the fleet's request plane — see
      {!Io_sched.error_class}. *)
  val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

  (** [create ?obs chunks ~metadata_extents] — index metrics land in [obs]
      when given, defaulting to the chunk store's registry. *)
  val create : ?obs:Obs.t -> Chunk.Chunk_store.t -> metadata_extents:int * int -> t
  val put : t -> key:string -> locators:Chunk.Locator.t list -> value_dep:Dep.t -> Dep.t
  val delete : t -> key:string -> Dep.t
  val get : t -> key:string -> (Chunk.Locator.t list option, error) result

  (** The live entries with [lo <= key <= hi] ([None] = unbounded), in
      ascending key order. A full-range scan serves the store's listing
      and reclamation's liveness pass. *)
  val scan :
    t ->
    lo:string option ->
    hi:string option ->
    ((string * Chunk.Locator.t list) list, error) result

  (** [configure_levels t ~l0_trigger ~level_ratio] sets the levelled
      compaction policy ([l0_trigger = 0] = monolithic full merge). *)
  val configure_levels : t -> l0_trigger:int -> level_ratio:int -> unit

  (** Whether a levelled compaction trigger currently fires (consulted by
      the store's post-mutation maintenance). *)
  val compaction_due : t -> bool

  (** Run count per level (trailing empties trimmed). *)
  val level_runs : t -> int list

  (** The composed per-level discipline: ranges in every level >= 1 sorted
      and pairwise disjoint, run ids unique. Checkable without IO. *)
  val level_invariants : t -> (unit, string) result

  val flush : t -> for_shutdown:bool -> (Dep.t, error) result
  val compact : t -> (Dep.t, error) result

  (** Major compaction: merge {e every} run into one generation, dropping
      tombstones, regardless of the levelling policy. The store's
      garbage-collection ladder uses this under extent exhaustion — all
      superseded chunks become garbage at once, where incremental levelled
      steps would churn fresh chunks faster than reclamation frees old
      ones. *)
  val compact_major : t -> (Dep.t, error) result

  val update_locator :
    t ->
    key:string ->
    old_loc:Chunk.Locator.t ->
    new_loc:Chunk.Locator.t ->
    new_dep:Dep.t ->
    Dep.t

  val run_locators : t -> (int * Chunk.Locator.t) list

  val relocate_run :
    t -> run_id:int -> new_loc:Chunk.Locator.t -> new_dep:Dep.t -> (Dep.t, error) result

  (** Dependency covering the index state a reverse lookup ran against:
      every current run, the newest metadata record, and — if entries are
      staged — the pending flush. Reclamation folds it into the extent
      reset's input: a chunk may only be destroyed once the index state
      that no longer references it is durable. *)
  val basis_dep : t -> Dep.t

  val note_extent_reset : t -> unit
  val recover : t -> (unit, error) result
  val memtable_size : t -> int
  val run_count : t -> int
end

(** The storage node for one disk over an {!INDEX}: what [Store.Make]
    returns. *)
module type S = sig
  type t
  type index_error

  type error =
    | Out_of_service
    | No_space
    | Io of Io_sched.error
    | Index of index_error
    | Chunk_error of Chunk.Chunk_store.error
    | Superblock_error of Superblock.error
    | Wrong_owner of string  (** chunk read back belongs to another shard *)

  val pp_error : Format.formatter -> error -> unit

  (** Retry/health classification for the fleet's request plane, walking
      the nested error chain: [`Transient] retryable IO, [`Permanent]
      failed medium (trips the circuit breaker), [`Resource] extent
      exhaustion, [`Fatal] logic/corruption errors — see
      {!Io_sched.error_class}. *)
  val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

  type config = {
    disk : Disk.config;
    max_chunk_payload : int;  (** shard values split into chunks of at most this size *)
    superblock_cadence : int;  (** flush the superblock every N mutations *)
    index_flush_threshold : int;  (** auto-flush the memtable at this size (0 = manual) *)
    compact_threshold : int;  (** auto-compact beyond this many runs (0 = manual) *)
    l0_trigger : int;
        (** level-0 run count that triggers a levelled compaction step
            (0 = monolithic full-merge compaction) *)
    level_ratio : int;  (** level [i >= 1] holds [level_ratio]{^ i} runs *)
    auto_pump : int;  (** background writeback IOs issued per operation *)
    cache_pages : int;
    cache_write_allocate : bool;  (** populate the cache on writes (section 8.3 experiment) *)
    seed : int64;
  }

  val default_config : config

  (** Small geometry for property-based tests: few, small extents so
      reclamation, extent exhaustion and crash corner cases are reachable
      in short operation sequences. *)
  val test_config : config

  (** [create ?obs cfg] — a fresh store. One {!Obs.t} registry serves the
      whole stack (disk, scheduler, cache, superblock, logrolls, chunk
      store, index, store): [obs] when given, else a fresh per-store
      registry with a small trace ring enabled, so two stores in a fleet
      never share series. A failed flush, compaction or superblock flush
      after mutations is counted in [store.maint_error], labelled by [op]
      and by the error's constructor as [kind]. *)
  val create : ?obs:Obs.t -> config -> t

  (** [of_disk ?obs cfg disk] re-opens a store on an existing disk
      (recovery path); the disk's accumulated metrics are re-homed onto
      the store's registry. *)
  val of_disk : ?obs:Obs.t -> config -> Disk.t -> t

  val config : t -> config
  val disk : t -> Disk.t
  val sched : t -> Io_sched.t
  val chunk_store : t -> Chunk.Chunk_store.t

  (** The unified metrics registry and trace ring for this store. *)
  val obs : t -> Obs.t

  (** {2 Request plane} *)

  val put : t -> key:string -> value:string -> (Dep.t, error) result
  val get : t -> key:string -> (string option, error) result
  val delete : t -> key:string -> (Dep.t, error) result
  val list : t -> (string list, error) result

  (** [scan t ?lo ?hi ()] — the live [(key, value)] pairs with
      [lo <= key <= hi] (unbounded when omitted), in ascending key order:
      one index scan, then the value chunks read in key order. A value
      that cannot be read fails the whole scan, like {!get}. *)
  val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, error) result

  (** Run count per level of the index, trailing empty levels trimmed. *)
  val level_runs : t -> int list

  (** The index's composed per-level invariant: every level [>= 1] sorted
      by min key with pairwise-disjoint ranges, run ids unique. [Error]
      describes the first violation. *)
  val level_invariants : t -> (unit, string) result

  (** Raw index lookup (introspection for tests and tools). *)
  val locators : t -> key:string -> (Chunk.Locator.t list option, error) result

  (** {2 Batched request plane (group commit)}

      Result of a batch: per-op outcomes in request order, plus one barrier
      dependency that persists exactly when every successful op of the
      batch does — the natural durability handle for group commit. *)
  type batch_result = { results : (Dep.t, error) result list; barrier : Dep.t }

  (** [put_batch t ops] applies N puts with group commit: one service
      check, one memtable reservation (the batch flushes the memtable up
      front if the N inserts would cross the threshold), coalesced chunk
      allocation ({!Chunk.Chunk_store.put_batch} — per-extent groups, one
      append and one superblock record per group) and one amortized
      maintenance pass (superblock-cadence check, batched writeback via
      {!Io_sched.submit_batch}) for the whole batch. When group allocation
      hits resource pressure the batch falls back to the sequential per-op
      path with its GC ladder, so per-op outcomes match the loop exactly.
      The outer [Error] is only ever [Out_of_service].

      Observationally equivalent to the sequential [put] loop, including
      under a crash at any dependency-graph prefix — the batch conformance
      property in [test/test_lfm.ml] checks this. *)
  val put_batch : t -> (string * string) list -> (batch_result, error) result

  (** [delete_batch t keys] — the delete counterpart of {!put_batch}. *)
  val delete_batch : t -> string list -> (batch_result, error) result

  (** {2 Background maintenance} *)

  val flush_index : t -> (Dep.t, error) result
  val flush_superblock : t -> (Dep.t, error) result
  val compact : t -> (Dep.t, error) result

  (** [reclaim t ?extent ()] garbage-collects one extent (the one with the
      most reclaimable bytes when [extent] is omitted, never one holding
      chunks of a put in progress). Returns [None] when nothing is worth
      reclaiming or no evacuation headroom remains. *)
  val reclaim : t -> ?extent:int -> unit -> (Dep.t option, error) result

  (** [reclaim_ahead t]: when fewer than an eighth of the store's extents
      are free, reclaims the 16 extents with the most garbage (fewer if
      fewer hold any), each as one drain iteration; the number reclaimed.
      A maintenance tick calls it so the disk does not fill: left to
      allocation failure, reclamation drains every extent holding garbage
      inside one call. *)
  val reclaim_ahead : t -> (int, error) result

  val pump : t -> int -> int

  (** {2 Crash and recovery} *)

  type reboot_spec = {
    flush_index_first : bool;  (** flush the memtable before crashing *)
    flush_superblock_first : bool;
    persist_probability : float;  (** chance each eligible pending write persisted *)
    split_pages : bool;  (** enable page-granular torn writes (block-level mode) *)
  }

  val clean_reboot_spec : reboot_spec

  (** [dirty_reboot t ~rng spec] crashes (dropping volatile state and a
      dependency-respecting subset of pending writes) and recovers. *)
  val dirty_reboot : t -> rng:Util.Rng.t -> reboot_spec -> (unit, error) result

  (** [clean_shutdown t] flushes everything and drains the scheduler;
      afterwards every returned dependency must be persistent (the forward
      progress property). *)
  val clean_shutdown : t -> (unit, error) result

  (** [recover t] rebuilds volatile state from the disk. *)
  val recover : t -> (unit, error) result

  (** {2 Control plane} *)

  val remove_from_service : t -> (unit, error) result
  val return_to_service : t -> (unit, error) result
  val in_service : t -> bool

  (** {2 Introspection} *)

  val reclaimable_extents : t -> (int * int) list
  (** (extent, garbage bytes), sorted most-garbage-first *)

  val index_run_count : t -> int
end
