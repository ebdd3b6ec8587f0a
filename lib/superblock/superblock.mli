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
    [superblock.record] / [superblock.free_claim_withheld], plus
    [superblock.recover]) land in [obs], defaulting to the scheduler's
    registry. *)
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
    promise. Returns the record's dependency. *)
val flush : t -> (Dep.t, error) result

(** [recover t] re-reads ownership from the newest durable record. Returns
    [false] when no record exists (fresh disk): ownership is reset to the
    creation state. *)
val recover : t -> bool

val generation : t -> int
