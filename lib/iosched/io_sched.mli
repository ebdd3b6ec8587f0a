(** The IO scheduler: volatile staging of writes plus soft-updates
    writeback ordering (paper section 2.2).

    Layers above mutate only through {!append} and {!reset}; both take and
    return a {!Dep.t}. A write is {e pending} (visible to reads through the
    volatile extent image, not yet durable) until the scheduler issues it,
    which it may do only when the write's input dependency has persisted
    and, within an extent, in FIFO order (extents are sequential-write).

    {!pump} issues ready writes in a randomized order — the orderings a real
    writeback thread could pick — seeded for determinism. {!crash} samples
    a crash state and {!crash_states} enumerates them (see Crash states
    below). *)

type t

type error =
  | Io of Disk.io_error
  | Extent_full of { extent : int; wanted : int; available : int }
  | Stuck of { blocked : int }
      (** forward-progress violation: pending writes whose dependencies can
          never persist *)

val pp_error : Format.formatter -> error -> unit

(** Coarse classification for the retry/health policy of layers above:
    [`Transient] (a retry may succeed), [`Permanent] (the extent is failed
    until healed; retrying is pointless), [`Resource] (extent exhaustion —
    GC pressure, not node health) or [`Fatal] (logic/corruption errors the
    request plane must surface, never retry). Every error wrapper up the
    stack ({!Logroll}, {!Superblock}, {!Chunk.Chunk_store}, {!Lsm.Index},
    [Store]) forwards to this on its IO constructors. *)
val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

(** [create ?obs ?seed disk] — metrics land in [obs] when given, defaulting
    to the disk's registry so both layers share one by default. [?obs]
    first, per the convention in [lib/obs/obs.mli]. *)
val create : ?obs:Obs.t -> ?seed:int64 -> Disk.t -> t

val disk : t -> Disk.t

(** The registry this scheduler's metrics land in. *)
val obs : t -> Obs.t
val page_size : t -> int
val extent_count : t -> int
val extent_size : t -> int

(** {2 Volatile view} *)

(** [soft_ptr t ~extent] — next write position (includes pending writes). *)
val soft_ptr : t -> extent:int -> int

(** [epoch t ~extent] — volatile reset epoch (includes pending resets). *)
val epoch : t -> extent:int -> int

val capacity_left : t -> extent:int -> int

(** [quarantined t ~extent] — true after a permanent IO failure destroyed
    staged writes on the extent. Appends are rejected (allocators must
    skip it) until a reset mints a fresh epoch; reset epochs are monotone
    within a session, so locators of the lost writes can never re-appear
    attached to different data. *)
val quarantined : t -> extent:int -> bool

(** [append t ~extent ~data ~input] stages a sequential write at the soft
    pointer. Returns the dependency for this write. Fails with
    [Extent_full] when the data does not fit. *)
val append : t -> extent:int -> data:string -> input:Dep.t -> (Dep.t, error) result

(** [reset t ~extent ~input] stages a write-pointer reset (epoch bump). *)
val reset : t -> extent:int -> input:Dep.t -> (Dep.t, error) result

(** [read t ~extent ~off ~len] reads through the volatile image (sees
    pending writes). Subject to injected IO failures; rejects reads at or
    beyond the soft pointer. *)
val read : t -> extent:int -> off:int -> len:int -> (string, error) result

(** {2 Writeback} *)

(** [pump ?max_ios t] issues ready writes in randomized dependency-respecting
    order; returns the number issued.

    Order contract: a call runs passes until one issues nothing or
    [max_ios] writes are issued. Each pass takes the extents with queued
    writes at its start (the active set), shuffles them uniformly and
    afresh ({!Util.Rng.shuffle} on the scheduler's seeded generator), and
    tries each extent's queue head once in that order. So every relative
    order of the ready heads is equally likely within a pass, which is
    the property crash-state exploration relies on ([test_iosched] checks
    it with a chi-square test over fixed seeds); the concrete order, and
    so every crash state and validation verdict built on it, is a
    function of the seed and the calls made.

    Cost per pass: [k - 1] draws for [k] active extents, plus work in
    those extents only. A head blocked on the same leaf as at its last
    check (see {!Dep.blocks}) is answered without walking its dependency
    graph. *)
val pump : ?max_ios:int -> t -> int

(** [submit_batch ?max_ios t] — the group-commit writeback path. Walks
    extents in sorted (not shuffled) order and, per extent, coalesces the
    maximal ready run of contiguous queue-head appends into a single disk
    IO; intra-run dependencies count as resolved because the merged IO is
    atomic. Resets and non-mergeable heads fall back to single-IO issue.
    Passes repeat until one issues nothing or [max_ios] IOs are issued.
    Returns the number of IOs issued (each merged run counts once).
    A pass costs work in the extents with queued writes only, in
    ascending extent order, and draws no random values.
    Observability: bumps [iosched.batch_submit] per call,
    [iosched.coalesced_append] by [k-1] per [k]-wide merge, and records
    merge widths in the [iosched.coalesce_width] histogram. *)
val submit_batch : ?max_ios:int -> t -> int

(** [flush t] pumps until nothing is pending. [Error (Stuck _)] reports a
    forward-progress violation (a dependency cycle or an unbound promise
    reachable from a pending write). *)
val flush : t -> (unit, error) result

val pending_count : t -> int

(** [queue_invariants t] checks the write-back bookkeeping without IO: the
    active set holds exactly the extents with queued writes, the pending
    count matches the queues, every queue holds pending writes of its own
    extent in ascending id order, a cached blocker belongs to its extent's
    current head (an empty or drained queue keeps none), and no head
    cached as blocked has a persistent input. [Error] describes the first
    violation. *)
val queue_invariants : t -> (unit, string) result

(** [pending_writes t] — every staged write in scheduling order, without
    changing the scheduler. *)
val pending_writes : t -> Dep.write list

(** [has_pending_reset t ~extent] — true while a staged reset has not been
    issued. Allocators must not reuse such an extent: chunks written behind
    the reset could be referenced by the very index flush the reset waits
    on, deadlocking writeback. *)
val has_pending_reset : t -> extent:int -> bool

(** {2 Crash states}

    A crash state is what a crash leaves on the disk, and the {e selection}
    is its one definition: a fixpoint that walks the extents in ascending
    order, pass after pass while one persists a write (an input may point
    at a write queued later on another extent). On each extent not yet
    stopped it decides the next queued write whose input holds under the
    writes persisted so far: persist it whole, stop the extent before it,
    or tear it (an append) at a page boundary strictly inside it, which
    also stops the extent. {!crash} samples the decisions and
    {!crash_states} enumerates them. *)

type crash_report = {
  persisted : int;  (** pending writes persisted whole *)
  partial : int;  (** appends persisted up to a page boundary *)
  dropped : int;
}

(** [crash t ~rng ~persist_probability ~split_pages] samples one crash
    state and makes it the durable state. Each decided write persists with
    [persist_probability]; under [split_pages] a quarter of the persisted
    appends that span a page boundary tear at one instead (the block-level
    mode of paper section 5). Afterwards the volatile view equals the
    durable state, and every previously pending write is [Durable]
    (persisted whole) or [Dropped]. *)
val crash :
  t -> rng:Util.Rng.t -> persist_probability:float -> split_pages:bool -> crash_report

type crash_state

(** [crash_states t] yields every state {!crash} can produce from the
    writes queued now, torn pages included, each exactly once, computed on
    demand by walking the selection's decisions depth first (stop, each
    tear by ascending cut, persist). It changes nothing; use the states
    before the queues change. *)
val crash_states : t -> crash_state Seq.t

(** [persisted state w] — [w] persists whole in [state] (a torn write does
    not). *)
val persisted : crash_state -> Dep.write -> bool

(** [write_state t state disk] writes [state] to [disk], the durable state
    of [t]'s disk or a {!Disk.copy} of it: per extent in queue order, the
    writes persisted whole, then the torn append's prefix, with faults
    suspended. {!crash} writes through it to the live disk. *)
val write_state : t -> crash_state -> Disk.t -> unit

(** [discard_volatile t] drops every pending write and reloads the
    volatile images from the durable state — the effect of a process
    restart without a disk crash. Recovery paths call it so they never
    observe staged-but-failed writes as if they were on disk. *)
val discard_volatile : t -> unit
