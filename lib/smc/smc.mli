(** Stateless model checking of concurrent code (paper section 6).

    The paper validates concurrency with two tools: Loom, which soundly
    enumerates all interleavings of small tests, and Shuttle, which
    randomly samples interleavings of large ones (probabilistic
    concurrency testing). This module reproduces both over a cooperative
    runtime built on OCaml effects:

    - test code runs inside {!explore} and uses {!spawn}, {!Cell},
      {!Mutex} and {!Semaphore} instead of real threads and atomics; every
      primitive access is a scheduling point;
    - the scheduler repeatedly executes the test, one interleaving per
      {e schedule}, on one exploration loop. A {!strategy} only chooses
      the schedules: exhaustive DFS over the schedule tree ({!Dfs}, the
      Loom analogue), uniform random ({!Random_walk}), or PCT with
      priority change points ({!Pct}, the Shuttle analogue);
    - assertion failures, uncaught exceptions and deadlocks (all threads
      blocked) are reported with a replayable schedule.

    Checking is sound for programs whose only inter-thread communication
    goes through these primitives: the scheduler is the only source of
    non-determinism, and a single domain executes everything, so there are
    no data races outside the modelled scheduling points.

    {b Sanitizers.} Pass [~sanitize] to {!explore}/{!replay} to run the
    {!Sanitize} detectors alongside checking. The memory model they assume:
    [Cell.get]/[Cell.set] are {e plain} accesses (race-checked), while
    [Cell.update] is an atomic read-modify-write and a pure
    synchronization point (it orders, like a mutex, and is never itself
    reported as racing). Publish shared state with [update] (or under a
    lock) and the vector-clock detector stays quiet; publish with [set]
    against a concurrent [get] and it reports a {!Race} on every schedule
    that reorders the pair — even schedules where the final state is
    correct. Instrumentation events are delivered through a
    non-scheduling effect, so enabling sanitizers never changes the
    schedule tree: schedule ids stay valid with sanitizers on or off. *)

(** {2 Primitives (valid only inside a running exploration)} *)

(** [spawn f] starts a new thread; a scheduling point. *)
val spawn : (unit -> unit) -> unit

(** [yield ()] — pure scheduling point. *)
val yield : unit -> unit

(** Id of the running thread (0 = the test body). *)
val thread_id : unit -> int

(** [wait_until pred] blocks the thread until [pred ()] holds. Use this
    instead of busy-waiting on a {!Cell}: a spin loop gives the scheduler
    an unbounded number of pointless interleavings, blowing up DFS, while
    a blocked thread is simply not runnable. [pred] must be monotone (once
    true, stays true until the waiter runs). *)
val wait_until : (unit -> bool) -> unit

(** Atomic cells; every access is a scheduling point.

    For the race detector, [get]/[set] are plain accesses and [update] is
    an atomic RMW (a synchronization point). Cells are numbered in
    creation order, restarting at 0 for every schedule, so a
    deterministic body gives each cell the same {!Cell.id} on every
    schedule and on replay — the [loc] in a {!Race} report. *)
module Cell : sig
  type 'a t

  val make : 'a -> 'a t

  (** Location id used in {!Race} reports (creation order within the
      current run). *)
  val id : 'a t -> int

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  (** [update t f] — atomic read-modify-write; returns the old value. *)
  val update : 'a t -> ('a -> 'a) -> 'a

  (** [peek t] — read without a scheduling point (assertions only). *)
  val peek : 'a t -> 'a
end

(** [join fs] spawns one thread per function and blocks until all have
    returned: one counter cell, made at the call (so it takes the next
    {!Cell.id}), is bumped with [Cell.update] as each thread's last step,
    then [wait_until] sees the full count. It costs exactly what the
    hand-written counter-cell join costs: the same schedules, steps and
    race-checked accesses. *)
val join : (unit -> unit) list -> unit

(** [lock_id ?name ()] — inside a running exploration, a fresh lock id
    from the numbering {!Mutex.create} uses, labelled [name] in
    {!outcome.lock_names}; [None] outside one. A lock built on {!Cell}s
    (the shipped [Conc.Rwlock]) takes its exploration path when it gets
    an id, and reports its acquisitions with {!note}. *)
val lock_id : ?name:string -> unit -> int option

(** [note ev] hands an instrumentation event to the running
    exploration's sanitizers, without a scheduling point; outside an
    exploration it does nothing. [Lock_acquire id] and [Lock_release id]
    feed the lock-order analysis and the race detector's lock clocks, as
    {!Mutex} does. *)
val note : Sanitize.event -> unit

module Mutex : sig
  type t

  (** [?name] labels the lock's class for the {!outcome.lock_names}
      export ("shard", "stack", "cache", ...); ids stay deterministic
      per schedule, so the same lock gets the same name on every run. *)
  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit

  (** A scheduling point (so waiters can be explored waking between the
      release and the releaser's next access). *)
  val release : t -> unit
end

(** {2 Exploration} *)

(** How {!explore} picks each schedule. Every strategy runs on the same
    loop, which counts schedules and steps against the budget and stops
    at the first violation; a strategy supplies only a chooser, built
    before every schedule, and a hook that sees every clean schedule. *)
type strategy =
  | Dfs of { max_schedules : int }
      (** exhaustive enumeration (sound up to the budget); the Loom
          analogue. The chooser forces a prefix of the schedule tree; the
          hook advances its deepest open branch and reports exhaustion. *)
  | Random_walk of { seed : int; schedules : int }
      (** uniform random choice at every scheduling point *)
  | Pct of { seed : int; schedules : int; depth : int }
      (** probabilistic concurrency testing with [depth - 1] priority
          change points, drawn over the length of the last clean run
          (the hook re-estimates it); the Shuttle analogue *)

type violation_kind =
  | Assertion of string  (** [Assert_failure] or [Failure] inside a thread *)
  | Exception of string
  | Deadlock of { blocked : int }
  | Race of {
      loc : int;  (** {!Cell.id} of the racing cell *)
      tids : int * int;  (** the two racing threads, earlier access first *)
      access : string;
          (** ["write/write"], ["read/write"] or ["write/read"] *)
    }
      (** flagged by the sanitizer ([~sanitize]) even on schedules where
          the race does not corrupt state *)

type violation = {
  kind : violation_kind;
  schedule : int list;  (** replayable choice sequence *)
  steps : int;  (** scheduling points executed in the failing run *)
}

val pp_violation : Format.formatter -> violation -> unit

type outcome = {
  schedules_run : int;
  total_steps : int;
  exhausted : bool;  (** DFS explored the entire tree within budget *)
  violation : violation option;
  lock_cycles : int list list;
      (** potential-deadlock cycles in the lock-acquisition graph
          accumulated across {e all} explored schedules (empty unless
          [~sanitize] enables lock-order analysis); reported even when no
          schedule deadlocked *)
  lock_edges : (int * int) list;
      (** every [(held, acquired)] acquisition edge accumulated across all
          explored schedules, sorted (empty unless [~sanitize] enables
          lock-order analysis) *)
  lock_names : (int * string) list;
      (** names for the lock ids appearing in [lock_edges], for locks
          created with [Mutex.create ~name] or minted by
          [lock_id ~name]. Feeds the
          [validate --lint-graph] export that [lib/lint] cross-checks
          against the static acquisition graph. *)
  sanitize_accesses : int;
      (** plain accesses checked by the race monitors, summed over every
          explored schedule (0 with sanitizers off). Coverage evidence: a
          "no races" verdict over zero checked accesses proves nothing, so
          gates should assert this is positive. *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** [explore ?sanitize strategy body] — runs [body] under many schedules.
    [body] is re-executed from scratch per schedule and must be
    deterministic apart from scheduling. Returns on the first violation
    (including sanitizer-flagged {!Race}s). [sanitize] defaults to
    {!Sanitize.off}; existing harnesses behave identically without it. *)
val explore : ?sanitize:Sanitize.config -> strategy -> (unit -> unit) -> outcome

(** [replay body schedule] re-executes one schedule (for debugging).
    Returns the violation it reproduces, if any. Pass the same [sanitize]
    config used during exploration to reproduce {!Race} violations. *)
val replay : ?sanitize:Sanitize.config -> (unit -> unit) -> int list -> violation option
