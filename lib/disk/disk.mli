(** In-memory user-space disk.

    The disk models the durable medium under ShardStore: a fixed array of
    {e extents} (contiguous regions), each accepting only sequential
    (append-only) writes tracked by a {e hard write pointer}, with a [reset]
    operation that rewinds the pointer and bumps the extent's {e epoch} so
    stale data becomes unreadable (paper section 2.1).

    The paper's validation runs the implementation against exactly such an
    in-memory disk for determinism (section 4.1). Writes here are
    {e durable by definition}: the volatile staging of pending writes lives
    above, in {!Io_sched}. Failure injection (transient and permanent IO
    errors, section 4.4) is armed per extent. *)

type config = {
  extent_count : int;  (** number of extents, including reserved ones *)
  pages_per_extent : int;
  page_size : int;  (** bytes per page; crash states are page-granular *)
}

val default_config : config

(** Bytes per extent. *)
val extent_size : config -> int

type io_error =
  | Transient  (** one-shot failure; a retry may succeed *)
  | Permanent  (** extent is failed until {!heal} *)
  | Out_of_bounds of string  (** invalid extent, offset or length *)

val pp_io_error : Format.formatter -> io_error -> unit

type t

(** [create ?obs ?shadow config] — a fresh, zeroed disk. Metrics
    ([disk.read], [disk.write], [disk.reset], [disk.bytes_written],
    [disk.fault_injected]) land in [obs] when given, else in a private
    registry. [shadow] enables shadow checking of the disk's durable
    view: successful writes and resets commit shadow state, and every
    read attempt is checked (read-after-reset, stale epoch, unwritten
    pages) — see {!Sanitize.Page_shadow}. The shadow observes the extent
    lifecycle from the start; [copy] never carries it over (crash-state
    clones are scratch space). *)
val create : ?obs:Obs.t -> ?shadow:Sanitize.Page_shadow.t -> config -> t

(** [copy t] — deep copy of the durable state (fault arming reset to
    healthy). The crash-state enumerator evaluates candidate crash states
    on clones. *)
val copy : t -> t

val config : t -> config

(** {2 Observability} *)

(** The registry this disk's metrics currently land in. *)
val obs : t -> Obs.t

(** [attach_obs t obs] re-homes the disk's metrics onto [obs], carrying
    accumulated counts over. {!Store.S.of_disk} uses this so one registry
    covers the whole stack when a store is opened on an existing disk. *)
val attach_obs : t -> Obs.t -> unit

(** {2 Page-lifecycle sanitizer} *)

(** The shadow given to {!create}, if any. *)
val shadow : t -> Sanitize.Page_shadow.t option

(** [hard_ptr t ~extent] is the device write pointer: the number of bytes
    physically written since the last durable reset. Models the queryable
    zone pointer of zoned devices; recovery trusts this value. *)
val hard_ptr : t -> extent:int -> int

(** [epoch t ~extent] counts durable resets of the extent. Locators embed
    the epoch so reads of recycled extents are detected. *)
val epoch : t -> extent:int -> int

(** [write t ~extent ~off data] appends durably. [off] must equal the
    current hard pointer (sequential-write discipline); the scheduler
    guarantees this by issuing per-extent IOs in order. *)
val write : t -> extent:int -> off:int -> string -> (unit, io_error) result

(** [read ?expect_epoch t ~extent ~off ~len] reads durable bytes. Reading
    at or beyond the hard pointer is rejected: ShardStore forbids reads
    past an extent's write pointer. [expect_epoch] is the epoch the caller
    believes current (a locator epoch); when a shadow is attached, a
    mismatch against the touched pages' birth epoch is reported as a read
    of a recycled extent — at this faulting read, before any rejection. *)
val read : ?expect_epoch:int -> t -> extent:int -> off:int -> len:int -> (string, io_error) result

(** [reset ?epoch t ~extent] durably rewinds the write pointer and bumps
    the epoch (to [epoch] when given — the scheduler mints session-monotone
    epochs and the durable value must match the one embedded in locators).
    Physical bytes are scrubbed to zero to model unreadability. *)
val reset : ?epoch:int -> t -> extent:int -> (unit, io_error) result

(** {2 Failure injection} *)

(** [fail_once t ~extent] makes the next IO (read or write) touching
    [extent] fail with {!Transient}. *)
val fail_once : t -> extent:int -> unit

(** [fail_permanently t ~extent] fails all IO to [extent] until {!heal}. *)
val fail_permanently : t -> extent:int -> unit

val heal : t -> extent:int -> unit

(** [heal_all t] clears every per-extent fault {e and} disarms random
    arming — the "replace the broken hardware" step a chaos campaign runs
    before checking convergence. *)
val heal_all : t -> unit

(** [arm_random_faults t ~rng ~transient_prob ~permanent_prob] makes every
    IO on a healthy extent roll [rng]: with [permanent_prob] the extent
    fails permanently (as {!fail_permanently}, until {!heal}), else with
    [transient_prob] just that IO fails with {!Transient}. Seeded through
    [rng], so a campaign's fault placement replays from its seed instead
    of being hand-placed. Suspended by {!with_faults_suspended}; never
    carried over by {!copy}. *)
val arm_random_faults :
  t -> rng:Util.Rng.t -> transient_prob:float -> permanent_prob:float -> unit

val disarm_random_faults : t -> unit

(** [consume_fault t ~extent] delivers an armed failure (disarming a
    one-shot) without performing IO. Layers that stage or cache IO above the
    durable medium (the scheduler's volatile reads, the buffer cache) call
    this so injected faults hit them too. *)
val consume_fault : t -> extent:int -> (unit, io_error) result

(** Total number of injected failures delivered so far. *)
val injected_failures : t -> int

(** [with_faults_suspended t f] runs [f] with failure injection disabled
    (per-extent arming and random arming alike) and
    restores arming afterwards. The crash-state generator uses this: the
    writes it applies represent IO that already completed before the crash,
    so arming must not fire on them. *)
val with_faults_suspended : t -> (unit -> 'a) -> 'a

(** {2 Introspection for checkers} *)

(** [durable_image t ~extent] is a copy of the extent's durable bytes up to
    the hard pointer (test/debug use). *)
val durable_image : t -> extent:int -> string

(** [page_of_offset t off] is the page index containing byte [off]. *)
val page_of_offset : t -> int -> int
