(** Dynamic-analysis sanitizers for the model-checked concurrency layer and
    the storage stack.

    Three detectors, in the spirit of moving beyond "bugs that manifest on
    an explored schedule" (paper section 4.3):

    - a {e happens-before race detector} ({!Monitor}, FastTrack-style
      vector clocks) fed by the {!Smc} scheduler: a racy access pair is
      flagged on {e every} schedule that merely reorders it, not just the
      schedule where the race corrupts state;
    - a {e lock-order analysis} ({!Lock_order}): the lock-acquisition
      graph accumulated across all schedules of an exploration; cycles are
      potential deadlocks even when no schedule actually deadlocked;
    - a {e page-lifecycle shadow} ({!Page_shadow}, ASAN-style shadow state
      over the user-space disk): read-after-reset with a stale epoch,
      double resets, write-pointer regressions and leaked extents are
      reported at the exact faulting operation instead of waiting for a
      checker to observe corruption (the extent-reclamation bug class of
      paper sections 2.1 and 4.2). *)

(** Instrumentation events emitted by the {!Smc} primitives. Location and
    lock ids are minted per exploration run in creation order, so they are
    stable across the schedules of one exploration and across replay. *)
type event =
  | Read of int  (** plain [Cell.get] of the location *)
  | Write of int  (** plain [Cell.set] *)
  | Rmw of int  (** atomic [Cell.update]: a sync point, not a plain access *)
  | Lock_acquire of int
  | Lock_release of int
  | Sem_acquire of int
  | Sem_release of int
  | Barrier
      (** [Smc.wait_until] returned: the predicate was observed true. For
          race detection this joins every thread's clock — the barrier
          analogue of a wake, needed because a predicate already true on
          first check never blocks (and so never wakes). *)

type config = {
  races : bool;  (** vector-clock race detection *)
  lock_order : bool;
}

(** Everything disabled (the default for {!Smc.explore}). *)
val off : config

(** Vector-clock races plus lock-order analysis. *)
val default : config

val enabled : config -> bool

type race = {
  loc : int;  (** cell location id *)
  tids : int * int;  (** the two racing threads, first access first *)
  access : string;  (** ["write/write"], ["read/write"] or ["write/read"] *)
}

(** Growable vector clocks (exposed for tests). *)
module Vc : sig
  type t

  val create : unit -> t
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val incr : t -> int -> unit
  val join : t -> t -> unit
  val copy : t -> t
  val clear : t -> unit
end

(** The lock-acquisition graph, accumulated across every schedule of an
    {!Smc.explore} run. *)
module Lock_order : sig
  type t

  val create : unit -> t
  val add_edge : t -> held:int -> acquired:int -> unit

  (** All accumulated [(held, acquired)] edges, sorted. Feeds the
      [lib/lint] static/dynamic lock-graph cross-check via
      {!Smc.outcome.lock_edges}. *)
  val edges : t -> (int * int) list

  (** Strongly connected components with at least two locks (or a
      self-edge): the potential-deadlock cycles. Each cycle and the result
      list are sorted, so output is deterministic. *)
  val cycles : t -> int list list

  val pp_cycle : Format.formatter -> int list -> unit
end

(** Per-schedule race monitor, driven by the {!Smc} scheduler.

    Race detection is FastTrack-style happens-before tracking: plain
    [Cell.get]/[Cell.set] are the tracked accesses; [Cell.update],
    mutexes and semaphores are synchronization (release/acquire edges).
    Threads waking from [block]/[wait_until] join all clocks — sound for
    monotone predicates, at the cost of missing races that span such a
    barrier. *)
module Monitor : sig
  type t

  (** [create ?lock_order ~races ()] — pass the exploration-wide
      {!Lock_order.t} to accumulate acquisition edges (tracked whether or
      not [races] is on). *)
  val create : ?lock_order:Lock_order.t -> races:bool -> unit -> t

  val on_spawn : t -> parent:int -> child:int -> unit

  (** The thread was unblocked (its [block] predicate became true). *)
  val on_wake : t -> tid:int -> unit

  val on_event : t -> tid:int -> event -> unit

  (** First race detected, if any (sticky). *)
  val race : t -> race option

  (** Coverage evidence for "zero findings" gates: plain accesses checked
      by this monitor, with races on or off. A clean result over zero accesses
      proves nothing — report the count next to the verdict. *)
  val access_count : t -> int
end

(** ASAN-style shadow state over the user-space disk: one lifecycle state
    per page, plus the epoch current at the page's last write. Writes and
    resets {e commit} shadow state and should be reported only for
    operations the disk accepted; reads are {e check-only} and safe to
    report on the attempt, so a faulting read is caught even when the
    layer below rejects it. Attach one shadow per disk view (durable
    {!Disk} or a volatile image) — never both, or writes double-count. *)
module Page_shadow : sig
  type report_kind =
    | Stale_epoch_read of { expected : int; found : int }
        (** the page was recycled (reset + rewritten) after the reader's
            epoch was minted: a read of a recycled extent *)
    | Quarantined_read  (** read of a page scrubbed by reset *)
    | Unwritten_read
    | Double_reset  (** reset with no intervening write *)
    | Write_regression of { off : int; expected : int }
        (** sequential-write discipline violated per the shadow's own
            write pointer *)
    | Extent_leak of { pages : int }
        (** written, unreachable, never reset (reported at close) *)

  type report = {
    kind : report_kind;
    extent : int;
    page : int;
  }

  val pp_report : Format.formatter -> report -> unit

  type t

  (** [create ?obs ~extent_count ~pages_per_extent ~page_size ()] — with
      [obs], every report bumps [sanitize.page.*] counters (plus the
      [sanitize.page.reports] total) and writes/resets/reports land in the
      trace ring when tracing is on. *)
  val create :
    ?obs:Obs.t -> extent_count:int -> pages_per_extent:int -> page_size:int -> unit -> t

  (** Commit a successful sequential write. Flags a write-pointer
      regression if [off] disagrees with the shadow pointer. *)
  val on_write : t -> extent:int -> off:int -> len:int -> unit

  (** Commit a successful reset: written pages enter quarantine, the
      shadow pointer rewinds, [epoch] becomes the birth epoch of future
      writes. Flags a double reset. *)
  val on_reset : t -> extent:int -> epoch:int -> unit

  (** Check a read attempt (never mutates). [expect_epoch] is the epoch
      the reader believes current — a locator epoch; a mismatch against a
      page's birth epoch is a read of a recycled extent, reported at this
      faulting read. *)
  val on_read : ?expect_epoch:int -> t -> extent:int -> off:int -> len:int -> unit

  (** Record a leaked extent found at close. *)
  val report_leak : t -> extent:int -> pages:int -> unit

  (** Reports in detection order. The list is capped (oldest kept); use
      {!report_count} for the true total. *)
  val reports : t -> report list

  val report_count : t -> int
end
