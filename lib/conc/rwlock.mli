(** Writer-preferring reader-writer lock: one protocol, one
    implementation, checked two ways (modelled on the RWLock state machine
    of verified-betrfs).

    The protocol is an explicit state machine ({!Spec}): Free / Readers n /
    WriterPending / Writer, encoded as [{readers; pending; writer}] with
    five transition labels. The lock ({!t}) packs the state into one word
    and writes each transition once, as a pure function of the word. It
    applies them on one of two paths, chosen when the lock is created:

    - outside an {!Smc} exploration, by compare-and-set on an [Atomic]
      word. An optional transition trace is replayed against
      {!Spec.classify} ({!Trace.validate}), and racing real domains
      hammering a lock-protected register are checked linearizable
      against the sequential register model by {!Lincheck}
      ({!Check.impl});
    - inside one, as [Smc.Cell.update]s that block with
      [Smc.wait_until], recording the same trace and reporting every
      acquisition and release under the lock's name to the lock-order
      analysis. Exhaustive schedules of this path check mutual exclusion,
      writer preference and the absence of lost wakeups ({!Check.model})
      under the FastTrack race monitor, so data protected by the lock is
      also shown race-free: the paper's SC-for-race-free obligation
      (section 5.2), re-established on the code that ships.

    Off the exploration path, an operation pays one match on an immutable
    field for the choice.

    Writer preference: a reader may enter only when no writer is pending,
    so a continuous stream of readers cannot starve a writer. The lock is
    not reentrant; acquiring while holding (either mode) deadlocks.

    Blocking is a bounded spin ([Domain.cpu_relax]) that falls back to a
    microsleep, so a blocked acquirer yields its timeslice when domains
    outnumber cores instead of burning a scheduler quantum against the
    holder. Critical sections should stay short (staging drains, cache
    probes) — this is a spin lock, not a parking lock. *)

(** The protocol state machine, shared by the model checks and the
    implementation's trace validation. *)
module Spec : sig
  type state = {
    readers : int;  (** readers inside the critical section *)
    pending : int;  (** writers that declared intent and have not entered *)
    writer : bool;  (** a writer is inside the critical section *)
  }

  val initial : state

  (** [writer] excludes readers, and counts are non-negative. *)
  val invariant : state -> bool

  type label =
    | Reader_enter  (** guard: no writer inside, no writer pending *)
    | Reader_exit
    | Writer_declare
    | Writer_enter  (** guard: pending > 0, no readers, no writer *)
    | Writer_exit

  (** [step s l] — the successor state, or [None] when [l]'s guard fails
      in [s]. *)
  val step : state -> label -> state option

  (** [classify ~old_s ~new_s] — the unique label stepping [old_s] to
      [new_s], if any. Used to audit observed transitions. *)
  val classify : old_s:state -> new_s:state -> label option
end

(** {2 The lock} *)

type t

(** [create ?name ?trace_capacity ()] — a free lock. Created inside a
    running {!Smc} exploration, it takes the exploration path, and [name]
    labels it for the lock-graph export ({!Smc.outcome.lock_names});
    outside one, [name] is unused. With [trace_capacity > 0], the first
    [trace_capacity] successful state transitions are recorded (old and
    new packed state, claimed per slot with a fetch-and-add, so recording
    is safe from any number of domains) for {!Trace.validate}. *)
val create : ?name:string -> ?trace_capacity:int -> unit -> t

(** Block until no writer is inside or pending, then enter as a reader.
    Not reentrant — acquiring while already holding this lock (either
    mode) deadlocks. *)
val acquire_read : t -> unit

(** Raises [Invalid_argument] when no reader holds the lock. *)
val release_read : t -> unit

(** Declare intent (barring new readers at once — writer preference),
    then block until the section is empty and enter as the writer. Not
    reentrant. *)
val acquire_write : t -> unit

val release_write : t -> unit

(** Current state (racy snapshot; introspection and assertions only). *)
val state : t -> Spec.state

(** [with_read t f] / [with_write t f] — acquire, run [f], release on
    any exit including exceptions. Prefer these closure forms: the
    static lock-order linter ([bin/lint.exe]) recognizes only [with_*]
    acquisitions when building its class graph, so a paired
    acquire/release is invisible to that analysis. *)
val with_read : t -> (unit -> 'a) -> 'a

val with_write : t -> (unit -> 'a) -> 'a

module Trace : sig
  type violation = {
    index : int;  (** position in the recorded trace *)
    old_s : Spec.state;
    new_s : Spec.state;
  }

  val pp_violation : Format.formatter -> violation -> unit

  (** Total transitions taken (may exceed the recorded capacity). *)
  val transitions : t -> int

  (** [validate t] — replay the recorded transitions against
      {!Spec.classify}: every edge must be a legal step and both endpoints
      must satisfy {!Spec.invariant}. Returns [(checked, violations)].
      Slots are claimed per-transition, so under real contention the trace
      is not globally ordered — each edge is validated on its own, which
      is exactly what single-word CAS transitions guarantee. *)
  val validate : t -> int * violation list
end

(** {2 Validation entry points} *)

module Check : sig
  type model_report = {
    name : string;
    property : string;
    outcome : Smc.outcome;
    require_exhaustive : bool;
        (** two-thread harnesses must exhaust their schedule tree; the
            four-thread wakeup harness is sampled (PCT) *)
  }

  val pp_model_report : Format.formatter -> model_report -> unit

  (** Explore the lock's exploration path in every harness under
      [Sanitize.default]: mutual exclusion (writer/writer and
      writer/reader, exhaustive), writer preference (exhaustive, acting
      between a writer's declaration and its entry), no lost wakeups
      (exhaustive two-thread + sampled four-thread). [budget] bounds DFS
      schedules per harness. *)
  val model : ?budget:int -> unit -> model_report list

  (** No violation, no lock cycles, accesses actually race-checked, and
      every [require_exhaustive] harness exhausted. *)
  val model_ok : model_report list -> bool

  type impl_report = {
    transitions : int;  (** CAS transitions the lock took *)
    trace_checked : int;
    trace_violations : Trace.violation list;
    history_len : int;
    linearizable : bool;  (** register history admits a linearization *)
  }

  val pp_impl_report : Format.formatter -> impl_report -> unit

  (** Cross-check the real lock on real domains: [domains] domains each
      perform [ops_per_domain] reads/writes of a register protected by one
      lock, timestamped with a shared atomic clock; the history must
      linearize against the sequential register model ({!Lincheck.search},
      within its default node budget) and the transition trace must
      validate. *)
  val impl : ?domains:int -> ?ops_per_domain:int -> ?seed:int -> unit -> impl_report

  val impl_ok : impl_report -> bool
end
