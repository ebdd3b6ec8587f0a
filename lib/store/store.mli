(** The ShardStore storage node for one disk (paper section 2).

    Wires the full stack: in-memory disk → IO scheduler (soft updates) →
    buffer cache → superblock → chunk store → LSM index, and exposes the
    key-value API (put/get/delete/list), background maintenance
    (index flush, compaction, chunk reclamation, scheduler pumping),
    crash/reboot orchestration for the checkers, and the control-plane
    remove/return-from-service operations (fault #4's site).

    Every mutating operation returns a {!Dep.t}; the crash-consistency
    checker polls these for the persistence and forward-progress
    properties (paper section 5). *)

module type S = Store_intf.S

module Make (Index : Store_intf.INDEX) : S with type index_error = Index.error

(** The production wiring: the real LSM-tree index. *)
module Default : S with type index_error = Lsm.Index.error

(** Shared-state entry point: ONE {!Default} store driven by N racing
    domains, with a background {e maintenance plane}.

    Mutations stage into a hash-sharded table ({!Conc.Shard_table}, one
    writer-preferring {!Conc.Rwlock} per shard); a flush drains a shard
    into the underlying store while holding that shard's write lock and
    taking the {e stack lock} (a single rwlock serializing every access
    to the sequential store below) in a {e narrowed} critical section —
    per chunk of [flush_chunk] applied ops rather than across the whole
    drain — so foreground gets on other shards keep flowing through a
    flush. The global lock order is

    {v maint lock < shard locks (ascending index) < stack lock < cache lock v}

    (with the [lsm_run] and [trace] leaf classes below), and every code
    path acquires along it, so deadlock is impossible by construction —
    {!Conc.Conc_shared} is the model-checked version of this argument
    (maintenance-vs-foreground harnesses included), [bin/lint.exe]
    recomputes the acquisition graph statically from the sources, and
    the racing-domain conformance gate ([validate --shared]) checks
    per-key linearizability of real runs with a live maintenance
    domain.

    {b Linearization points.} A mutation is its staging store under the
    shard write lock; a get holds its shard {e read} lock across both
    the staged probe and the underlying read, so it cannot observe the
    flush window where a key is in neither place. A flush moves values
    without changing the logical contents, so it has no linearization
    point of its own — reads before, during and after a flush observe
    the same key-to-value map.

    {b Domain safety.} Any number of domains may call
    {!put}/{!get}/{!delete}/{!put_batch}/{!delete_batch}/{!list}/{!scan}
    concurrently with each other {e and} with the maintenance plane
    ({!flush}, {!flush_shard}, {!compact}, {!reclaim},
    {!clean_shutdown}, {!dirty_reboot}, a running {!Maint} worker).
    Only {!store} hands out an unsynchronized reference. *)
module Shared : sig
  type t
  type error = Default.error

  (** [create ?shards ?flush_chunk ?obs ?trace cfg] — a fresh underlying
      store plus [shards] staging shards (default 8).

      [flush_chunk] (default 32) bounds how many drained ops a flush
      applies per stack-lock hold: smaller values narrow the window in
      which foreground reads of the base are blocked, at the cost of
      more lock traffic; [0] restores the coarse whole-drain hold (the
      contention baseline recorded by [bench/maint_bench.exe]). The
      setting is invisible to correctness — only hold times change.

      Tracing on [obs] is forcibly disabled: the trace ring is
      single-domain. [?trace] attaches a domain-safe wire-trace recorder
      ({!Tracecheck.Trace.Recorder}): every put/get/delete/batch/scan is
      recorded as an invocation/response interval (src ["shared"]) and
      each flush as a [Flush] marker, for offline audit by
      {!Tracecheck.Audit}. *)
  val create :
    ?shards:int ->
    ?flush_chunk:int ->
    ?obs:Obs.t ->
    ?trace:Tracecheck.Trace.Recorder.t ->
    Default.config ->
    t

  val obs : t -> Obs.t

  (** The underlying sequential store. Only safe to use directly once
      no other domain is operating on [t]. *)
  val store : t -> Default.t

  val shards : t -> int

  (** Staged (unflushed) entries across all shards. *)
  val staged_count : t -> int

  val put : t -> key:string -> value:string -> (unit, error) result
  val get : t -> key:string -> (string option, error) result
  val delete : t -> key:string -> (unit, error) result

  (** Per-op outcomes of a staged batch, in request order — the same
      report-per-op contract as {!S.batch_result} (staging carries no
      dependency, so outcomes are [unit]). *)
  type batch_result = { results : (unit, error) result list }

  (** Batch staging: per-shard groups staged under one lock acquisition
      each, shards visited in ascending (lock) order; within a shard the
      batch's op order is preserved. *)
  val put_batch : t -> (string * string) list -> (batch_result, error) result

  (** [delete_batch t keys] — the tombstone counterpart of
      {!put_batch}. *)
  val delete_batch : t -> string list -> (batch_result, error) result

  (** {2 Maintenance plane}

      Every operation here first takes the store's {e maint} write lock
      — first in the global order maint < shard < stack < cache — so
      maintenance serializes against itself while foreground traffic,
      which never touches that lock, keeps running underneath. All of
      them are domain-safe: they may race foreground ops and each
      other freely.

      What a concurrent flush guarantees about reads: a get of a key in
      the shard being drained blocks on that shard's write lock (and
      then sees the value wherever it now lives); a get of any other
      shard's key proceeds, pausing only while a [flush_chunk]-bounded
      stack write section is held. A flush never changes the logical
      contents, so no read — get, list or scan — can distinguish
      pre-flush from post-flush state. *)

  (** Drain all staged entries into the underlying store (group commit
      via [Default.put_batch]/[delete_batch]), shard by shard in lock
      order. Returns the number of entries drained. On error, staged
      entries of the failing and subsequent shards remain staged — an
      acked mutation is never dropped (chunks already applied under a
      partial drain are shadowed by the staging they came from, and a
      retry re-applies them idempotently). *)
  val flush : t -> (int, error) result

  (** [flush_shard t i] drains only shard [i] (same contract as
      {!flush}); the maintenance worker's round-robin step. Raises
      [Invalid_argument] when [i] is out of range. *)
  val flush_shard : t -> int -> (int, error) result

  (** Compact the underlying index (maint + stack write locks; staging
      untouched). Logical contents are unchanged. *)
  val compact : t -> (unit, error) result

  (** Garbage-collect the most-reclaimable extent of the underlying
      store, if any ([true] = one extent was evacuated). *)
  val reclaim : t -> (bool, error) result

  (** Drain every staged entry, then flush and quiesce the base store —
      after this every acked mutation is persistent (the forward
      progress property). Foreground domains should have joined; a
      racing put can still land in staging after the drain, where it
      stays acked-but-volatile. *)
  val clean_shutdown : t -> (unit, error) result

  (** Crash and recover, for chaos workloads: staged entries are
      {e volatile} and are dropped — acked-but-unflushed mutations are
      lost, exactly like the memtable below — then the base store takes
      a {!S.dirty_reboot}. All shard write locks are held (ascending)
      around the stack write lock, so no foreground op is mid-flight
      when volatile state vanishes. Sequence this after racing
      linearizability workloads have joined, or model the loss. *)
  val dirty_reboot : t -> rng:Util.Rng.t -> Default.reboot_spec -> (unit, error) result

  (** The dedicated maintenance domain: round-robin {!flush_shard} with
      periodic {!compact}/{!reclaim}, racing foreground domains on a
      {!Conc.Domains.Worker}. *)
  module Maint : sig
    type stats = {
      steps : int;  (** worker loop iterations completed *)
      flushes : int;  (** successful shard flushes *)
      drained : int;  (** staged entries moved into the base store *)
      compacts : int;
      reclaims : int;
      errors : int;
          (** failed maintenance ops (never raises), each also counted in
              [store.maint_error] by [op] ([flush_shard], [compact],
              [reclaim]) and [kind] *)
    }

    type worker

    (** [start ?compact_every ?reclaim_every t] spawns the maintenance
        domain: step [n] flushes shard [n mod shards], then compacts
        every [compact_every]-th step and reclaims every
        [reclaim_every]-th (0, the default, disables either). Each op
        takes the maint lock separately, so foreground {!flush} calls
        interleave rather than starve.

        Maintenance follows the data: a clean shard is skipped after a
        reader-side emptiness probe (no write lock touched) with
        exponential backoff while the store stays idle, compaction fires
        on its period only when flushes have drained new data since the
        last one, and reclaim only after a fresh compaction — so an idle
        store costs the foreground nothing. [stats.steps] counts every
        loop iteration; [stats.flushes] only flushes that actually
        ran. *)
    val start : ?compact_every:int -> ?reclaim_every:int -> t -> worker

    (** Stop and join the maintenance domain. Call exactly once, from
        the owning domain; the returned stats are published by the
        join. *)
    val stop : worker -> stats
  end

  (** Staged overlay (puts added, tombstones removed) over the
      underlying listing, both captured under one consistent set of
      locks. *)
  val list : t -> (string list, error) result

  (** Range scan: the staged overlay applied on top of a {!Default.scan},
      both captured under all shard read locks (ascending) around the
      stack read lock — the established shard < stack order, no new lock
      classes. Byte-identical to what [Default.scan] returns once staging
      is empty. *)
  val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, error) result
end
