type t =
  | F1_reclaim_off_by_one
  | F2_cache_not_drained
  | F3_shutdown_skips_metadata
  | F4_disk_return_loses_shards
  | F5_reclaim_forgets_on_read_error
  | F6_superblock_ownership_dep
  | F7_soft_hard_pointer_mismatch
  | F8_missing_pointer_dep
  | F9_model_crash_reconcile
  | F10_uuid_magic_collision
  | F11_locator_race
  | F12_buffer_pool_deadlock
  | F13_list_remove_race
  | F14_compaction_reclaim_race
  | F15_model_locator_reuse
  | F16_bulk_create_remove_race
  | F17_cache_miss_path
  | F18_quorum_ack_volatile
  | F19_flush_clears_staging_early

let all =
  [ F1_reclaim_off_by_one; F2_cache_not_drained; F3_shutdown_skips_metadata;
    F4_disk_return_loses_shards; F5_reclaim_forgets_on_read_error;
    F6_superblock_ownership_dep; F7_soft_hard_pointer_mismatch;
    F8_missing_pointer_dep; F9_model_crash_reconcile; F10_uuid_magic_collision;
    F11_locator_race; F12_buffer_pool_deadlock; F13_list_remove_race;
    F14_compaction_reclaim_race; F15_model_locator_reuse;
    F16_bulk_create_remove_race ]

(* Extra seeded defects for experience-report experiments and checker
   teeth (#17-#19). *)
let extras = [ F17_cache_miss_path; F18_quorum_ack_volatile; F19_flush_clears_staging_early ]

let number = function
  | F1_reclaim_off_by_one -> 1
  | F2_cache_not_drained -> 2
  | F3_shutdown_skips_metadata -> 3
  | F4_disk_return_loses_shards -> 4
  | F5_reclaim_forgets_on_read_error -> 5
  | F6_superblock_ownership_dep -> 6
  | F7_soft_hard_pointer_mismatch -> 7
  | F8_missing_pointer_dep -> 8
  | F9_model_crash_reconcile -> 9
  | F10_uuid_magic_collision -> 10
  | F11_locator_race -> 11
  | F12_buffer_pool_deadlock -> 12
  | F13_list_remove_race -> 13
  | F14_compaction_reclaim_race -> 14
  | F15_model_locator_reuse -> 15
  | F16_bulk_create_remove_race -> 16
  | F17_cache_miss_path -> 17
  | F18_quorum_ack_volatile -> 18
  | F19_flush_clears_staging_early -> 19

let of_number n = List.find_opt (fun f -> number f = n) (all @ extras)

let component = function
  | F1_reclaim_off_by_one | F5_reclaim_forgets_on_read_error
  | F9_model_crash_reconcile | F10_uuid_magic_collision | F11_locator_race
  | F15_model_locator_reuse -> "Chunk store"
  | F2_cache_not_drained | F8_missing_pointer_dep | F17_cache_miss_path -> "Buffer cache"
  | F3_shutdown_skips_metadata | F14_compaction_reclaim_race -> "Index"
  | F4_disk_return_loses_shards | F13_list_remove_race
  | F16_bulk_create_remove_race | F19_flush_clears_staging_early -> "API"
  | F6_superblock_ownership_dep | F7_soft_hard_pointer_mismatch
  | F12_buffer_pool_deadlock -> "Superblock"
  | F18_quorum_ack_volatile -> "Fleet"

let description = function
  | F1_reclaim_off_by_one ->
    "Off-by-one error in reclamation for chunks of size close to PAGE_SIZE"
  | F2_cache_not_drained -> "Cache was not correctly drained after resetting an extent"
  | F3_shutdown_skips_metadata ->
    "Metadata was not flushed correctly during shutdown if an extent was reset"
  | F4_disk_return_loses_shards ->
    "Shards could be lost if a disk was removed from service and then later returned"
  | F5_reclaim_forgets_on_read_error ->
    "Reclamation could forget chunks after a transient read IO error"
  | F6_superblock_ownership_dep ->
    "Superblock Dependency for extent ownership was incorrect after a reboot"
  | F7_soft_hard_pointer_mismatch ->
    "Mismatch between soft and hard write pointers in a crash after an extent reset"
  | F8_missing_pointer_dep ->
    "Writes did not include a dependency on the soft write pointer update"
  | F9_model_crash_reconcile ->
    "Reference model was not updated correctly after a crash during reclamation"
  | F10_uuid_magic_collision ->
    "Reclamation could forget chunks after a crash and UUID collision"
  | F11_locator_race ->
    "Chunk locators could become invalid after a race between write and flush"
  | F12_buffer_pool_deadlock ->
    "Buffer pool exhaustion could cause threads waiting for a superblock update to deadlock"
  | F13_list_remove_race ->
    "Race between control plane operations for listing and removal of shards"
  | F14_compaction_reclaim_race ->
    "Race between reclamation and LSM compaction could lose recent index entries"
  | F15_model_locator_reuse ->
    "Reference model could re-use chunk locators, which other code assumed were unique"
  | F16_bulk_create_remove_race ->
    "Race between control plane bulk operations for creating and removing shards"
  | F17_cache_miss_path ->
    "Bug in the cache-miss path, unreachable while the cache was configured too large (S8.3)"
  | F18_quorum_ack_volatile ->
    "Fleet acknowledged a quorum write before the replicas durably flushed it"
  | F19_flush_clears_staging_early ->
    "Shared-store flush cleared a shard's staging before applying it, outside the shard lock"

type property_class = Functional_correctness | Crash_consistency | Concurrency

let property_class f =
  match f with
  | F17_cache_miss_path -> Functional_correctness
  | F18_quorum_ack_volatile -> Crash_consistency
  | _ -> (
    match number f with
    | n when n <= 5 -> Functional_correctness
    | n when n <= 10 -> Crash_consistency
    | _ -> Concurrency)

let property_class_name = function
  | Functional_correctness -> "Functional Correctness"
  | Crash_consistency -> "Crash Consistency"
  | Concurrency -> "Concurrency"

let pp fmt f = Format.fprintf fmt "#%d" (number f)
let to_string f = Format.asprintf "%a" pp f

(* [state] stays a plain bool array: toggles are only legal between
   sweeps (see faults.mli), so parallel tasks only ever read it, and the
   spawn/join of each sweep publishes the toggles to every worker.
   Firing counters, by contrast, are bumped from inside tasks running on
   concurrent domains, so they are atomics — exact totals, not
   best-effort. *)
let state = Array.make 20 false
let counters = Array.init 20 (fun _ -> Atomic.make 0)

let enabled f = state.(number f)
let enable f = state.(number f) <- true
let disable f = state.(number f) <- false
let disable_all () = Array.fill state 0 (Array.length state) false

let with_fault f thunk =
  let prev = enabled f in
  enable f;
  Fun.protect ~finally:(fun () -> if not prev then disable f) thunk

let only f thunk =
  disable_all ();
  with_fault f thunk

let fired f = Atomic.get counters.(number f)
let record_fired f = Atomic.incr counters.(number f)
let reset_counters () = Array.iter (fun c -> Atomic.set c 0) counters
