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
  val keys : t -> (string list, error) result

  (** The locators of every live key, in no particular order: what [keys]
      and a [get] per key return, in one pass. Reclamation's liveness scan
      runs it once per extent it reclaims. *)
  val live_locators : t -> (Chunk.Locator.t list, error) result

  (** A snapshot-at-open range cursor over live entries ([lo <= key <= hi],
      [None] = unbounded); all IO happens at open, so [cursor_next] is
      total. *)
  type cursor

  val scan : t -> lo:string option -> hi:string option -> (cursor, error) result
  val cursor_next : cursor -> (string * Chunk.Locator.t list) option

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
