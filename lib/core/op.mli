(** The operation alphabet for conformance checking (paper Fig. 3).

    A property-based test is a sequence drawn from this alphabet: the
    store's API operations, background maintenance (no-ops in the
    reference model, included to validate they do not corrupt the
    mapping), component flush operations that refine crash states
    (section 5, "block-level crash states"), failure injection
    (section 4.4) and reboots.

    Constructors are ordered simple-first: shrinkers prefer earlier
    variants, so minimized counterexamples use the least exotic
    operations that still fail (section 4.3). *)

type reboot_type = {
  flush_index : bool;  (** flush the memtable before the crash *)
  flush_superblock : bool;
  persist_probability : float;  (** per-write persistence chance in the crash state *)
  split_pages : bool;  (** allow page-granular torn appends *)
}

type t =
  | Get of string
  | Put of string * string
  | Delete of string
  | PutBatch of (string * string) list
      (** one group-committed batch through {!Store.S.put_batch} *)
  | DeleteBatch of string list
  | List
  | Scan of { lo : string option; hi : string option }
      (** one {!Store.S.scan} over [lo <= key <= hi] ([None] =
          unbounded), checked against the model *)
  | IndexFlush
  | SuperblockFlush
  | Compact
  | Reclaim
  | Pump of int
  | FailDiskOnce of int
  | FailDiskPermanent of int
  | HealDisk of int
  | RemoveFromService
  | ReturnToService
  | CleanReboot
  | DirtyReboot of reboot_type

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

(** True for DirtyReboot/CleanReboot. *)
val is_reboot : t -> bool

(** True for the failure-injection operations. *)
val is_failure : t -> bool

(** Payload bytes carried by the operation (Put value size). *)
val payload_bytes : t -> int

(** Summary of a sequence: length, crash count, total payload bytes — the
    quantities the paper's minimization anecdote reports. *)
type summary = { ops : int; crashes : int; bytes : int }

val summarize : t list -> summary
val pp_summary : Format.formatter -> summary -> unit
