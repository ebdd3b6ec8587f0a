(** Seeded-defect registry reproducing the paper's Figure 5 catalog.

    Each value of {!t} names one of the sixteen issues the paper's validation
    effort prevented from reaching production. The implementation consults
    {!enabled} at the exact code site the paper describes; enabling a fault
    re-introduces the defect so the checkers (property-based conformance,
    crash consistency, stateless model checking) can demonstrate detection.

    The registry is global mutable state. That is deliberate: the checkers
    run single-threaded (the concurrency checkers use the cooperative {!Smc}
    runtime, also single-domain), and a global toggle keeps the injection
    sites a one-line [if Faults.enabled F14 then ...].

    {b Domain-safety} (for parallel sweeps, [lib/par]): toggles
    ({!enable}/{!disable}/{!disable_all}/{!with_fault}/{!only}) must only
    be flipped {e between} sweeps — parallel tasks may read [enabled] but
    never change it; the sweep's spawn/join publishes the settings to
    every worker. Firing counters ({!fired}/{!record_fired}) are atomics
    and may be bumped from concurrent tasks; their totals are exact. *)

type t =
  (* Functional correctness (paper Fig. 5, #1-#5) *)
  | F1_reclaim_off_by_one  (** Chunk store: off-by-one in reclamation for near-page-size chunks *)
  | F2_cache_not_drained  (** Buffer cache: not drained after extent reset *)
  | F3_shutdown_skips_metadata  (** Index: metadata not flushed at shutdown after an extent reset *)
  | F4_disk_return_loses_shards  (** API: shards lost when a disk leaves and rejoins service *)
  | F5_reclaim_forgets_on_read_error  (** Chunk store: reclamation forgets chunks after transient read error *)
  (* Crash consistency (#6-#10) *)
  | F6_superblock_ownership_dep  (** Superblock: wrong dependency for extent ownership after reboot *)
  | F7_soft_hard_pointer_mismatch  (** Superblock: extent reused after reset before pointer update durable *)
  | F8_missing_pointer_dep  (** Write path: append dependency omits the soft-write-pointer update *)
  | F9_model_crash_reconcile  (** Chunk store reference model mishandles crash during reclamation *)
  | F10_uuid_magic_collision  (** Chunk store: reclamation miscounts after crash + UUID/magic collision *)
  (* Concurrency (#11-#16) *)
  | F11_locator_race  (** Chunk store: locator published before flush *)
  | F12_buffer_pool_deadlock  (** Superblock: buffer pool exhaustion deadlock *)
  | F13_list_remove_race  (** API: control-plane list/remove race *)
  | F14_compaction_reclaim_race  (** Index: reclamation vs. LSM compaction race loses entries *)
  | F15_model_locator_reuse  (** Chunk store reference model reuses locators *)
  | F16_bulk_create_remove_race  (** API: bulk create/remove race *)
  | F17_cache_miss_path
      (** Extra (paper section 8.3): a defect on the buffer cache's miss
          path — unreachable by the test harness while the cache is
          configured too large, the paper's one known missed bug. Not part
          of the Figure 5 catalog. *)
  | F18_quorum_ack_volatile
      (** Extra: the fleet acknowledges a quorum write without the durable
          flush on each acking replica — the intentionally broken variant
          the chaos campaign must catch (its teeth check). Not part of the
          Figure 5 catalog. *)
  | F19_flush_clears_staging_early
      (** Extra: the shared store's shard flush snapshots and clears the
          staging under the shard write lock, then applies the entries to
          the base after releasing it, so a get in between reads the old
          value after the put was acked. The teeth of the [Conc_shared]
          harnesses, which explore the shipped staging protocol. Not part
          of the Figure 5 catalog. *)

(** The Figure 5 catalog (#1..#16), without the extras #17 to #19. *)
val all : t list

(** Paper catalog number (1..16). *)
val number : t -> int

val of_number : int -> t option

(** Component column of Figure 5. *)
val component : t -> string

(** Description column of Figure 5. *)
val description : t -> string

type property_class = Functional_correctness | Crash_consistency | Concurrency

val property_class : t -> property_class
val property_class_name : property_class -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [enabled f] is true when the defect is currently injected. *)
val enabled : t -> bool

val enable : t -> unit
val disable : t -> unit
val disable_all : unit -> unit

(** [with_fault f thunk] enables [f] for the duration of [thunk], restoring
    the previous setting afterwards (also on exception). *)
val with_fault : t -> (unit -> 'a) -> 'a

(** [only f thunk] runs [thunk] with [f] the one fault enabled: it disables
    every fault, then runs [with_fault f thunk], so [f] is off again
    afterwards. Every seeded-fault hunt toggles through it. *)
val only : t -> (unit -> 'a) -> 'a

(** [fired f] counts how many times the injection site executed its buggy
    branch since the last {!reset_counters}; used by tests to confirm a
    scenario actually reached the defect. *)
val fired : t -> int

(** Called by injection sites when the buggy branch runs. *)
val record_fired : t -> unit

val reset_counters : unit -> unit
