(** The superblock: extent ownership and soft-write-pointer records.

    ShardStore tracks a soft write pointer for each extent in memory and
    persists them, together with extent ownership, in a superblock flushed
    on a regular cadence (paper section 2.1). Three pieces of the crash-
    consistency story live here:

    - {!note_append} hands out the {e cadence promise}: every append's
      returned dependency includes the superblock record that will cover
      its soft-pointer update (Fig. 2), so nothing is considered durable
      until the covering superblock generation is on disk.
    - {!set_owner} accumulates {e transition dependencies}: an extent may
      be recorded [Free] only in a record whose dependency covers the
      chunk evacuations, index updates and the reset that freed it. This
      is what makes it safe for the allocator to reuse recorded-[Free]
      extents without re-scanning them.
    - {!recover} adopts the ownership map of the newest durable record.

    A record carries only what changed: the first record on each log
    extent (see {!Logroll}) is a {e checkpoint} of the whole table, and
    every later one a {e delta} listing the extents whose rendering
    changed since the previous record. Recovery replays the chain of the
    log extent holding the newest generation.

    Fault sites: #6 (transition dependencies dropped after a reboot) and
    #8 (cadence promise omitted from append dependencies). *)

type owner =
  | Reserved  (** superblock or metadata extent; never allocated for data *)
  | Free  (** reusable; guaranteed unreferenced when recorded durable *)
  | Data  (** owned by the chunk store *)

val pp_owner : Format.formatter -> owner -> unit
val owner_equal : owner -> owner -> bool

type t

type error = Roll of Logroll.error

val pp_error : Format.formatter -> error -> unit

(** See {!Io_sched.error_class}. *)
val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

(** [create ?obs sched ~extents ~reserved] — a fresh superblock on reserved
    extent pair [extents]; every extent in [reserved] (which must include
    the pair itself) starts [Reserved], all others [Free]. No record is
    written until the first {!flush}. Metrics (coverage-linked
    [superblock.record] / [superblock.checkpoint] /
    [superblock.free_claim_withheld], plus [superblock.record_bytes], the
    framed bytes of the records appended, and [superblock.recover]) land
    in [obs], defaulting to the scheduler's registry. *)
val create : ?obs:Obs.t -> Io_sched.t -> extents:int * int -> reserved:int list -> t

val owner : t -> extent:int -> owner
val set_owner : t -> extent:int -> owner -> dep:Dep.t -> unit

(** Extents currently recorded or staged as [Free], in index order. *)
val free_extents : t -> int list

(** [List.length (free_extents t)], without the list. *)
val free_count : t -> int

val data_extents : t -> int list

(** [note_append t ~extent] — record that [extent]'s soft pointer moved and
    return the dependency on the covering (future) superblock record. *)
val note_append : t -> extent:int -> Dep.t

(** True when pointer updates or ownership transitions await a flush. *)
val dirty : t -> bool

(** [flush t] writes the next superblock generation, binding the cadence
    promise: a checkpoint when the record opens its log extent or follows
    a {!recover}, else a delta against the previous record. Returns the
    record's dependency. *)
val flush : t -> (Dep.t, error) result

(** [recover t] re-reads ownership from the newest durable record by
    replaying its log extent's chain, and makes the next record a
    checkpoint. Returns [false] when no record exists (fresh disk) or the
    chain does not replay: ownership is reset to the creation state. *)
val recover : t -> bool

val generation : t -> int

(** {2 Record format} *)

(** One extent as a record renders it: the owner tag (a [Free] whose
    transition dependency has not persisted renders as [Data]), the reset
    epoch and the soft write pointer. Recovery adopts only the tags; the
    epochs and pointers are the soft state the paper's superblock
    persists. *)
type entry = { owner : owner; epoch : int; soft_ptr : int }

(** [replay ~extents payloads] — the entries a chain of record payloads
    (oldest first) leaves. A payload is a kind byte, then either a
    checkpoint (the u32 extent count, then per extent the u8 owner tag,
    u32 epoch and u32 soft pointer), which replaces every entry, or a
    delta (the u32 count of changed extents, then per changed extent its
    u32 index and the same nine bytes, indices strictly ascending), which
    patches the entries it lists. Total: [Error] when the chain is empty
    or opens with a delta, or when a payload is cut, carries trailing
    bytes, an unknown kind or owner tag, a checkpoint count other than
    [extents], or a delta index outside [\[0, extents)] or out of
    order. *)
val replay : extents:int -> string list -> (entry array, Util.Codec.error) result
