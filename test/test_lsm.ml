(* Tests for the LSM index: memtable/run/metadata lifecycle, durability
   promises, compaction, recovery, and reclamation callbacks. *)

open Util

let config = { Disk.extent_count = 10; pages_per_extent = 8; page_size = 32 }
let reserved = [ 0; 1; 2; 3 ]

module Chunk_store = Chunk.Chunk_store

let make () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:10L disk in
  let cache = Cache.create sched in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved in
  let rng = Rng.create 11L in
  let cs = Chunk_store.create sched ~cache ~superblock:sb ~rng in
  let index = Lsm.Index.create ~max_run_payload:120 cs ~metadata_extents:(2, 3) in
  (disk, sched, sb, cs, index)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "index error: %a" Lsm.Index.pp_error e

let loc k = { Chunk.Locator.extent = 4; epoch = 0; off = k * 32; frame_len = 10 }

(* The live keys of a range, in order. *)
let scan_keys ?lo ?hi index = List.map fst (ok (Lsm.Index.scan index ~lo ~hi))

let test_put_get_memtable () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  Alcotest.(check int) "memtable" 1 (Lsm.Index.memtable_size index);
  match ok (Lsm.Index.get index ~key:"a") with
  | Some [ l ] -> Alcotest.(check bool) "locator" true (Chunk.Locator.equal l (loc 1))
  | _ -> Alcotest.fail "expected one locator"

let test_delete_shadows () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (Lsm.Index.delete index ~key:"a");
  Alcotest.(check bool) "deleted" true (ok (Lsm.Index.get index ~key:"a") = None)

let test_flush_then_get_from_run () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (Lsm.Index.put index ~key:"b" ~locators:[ loc 2 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  Alcotest.(check int) "memtable empty" 0 (Lsm.Index.memtable_size index);
  Alcotest.(check bool) "runs exist" true (Lsm.Index.run_count index >= 1);
  Alcotest.(check bool) "a found" true (ok (Lsm.Index.get index ~key:"a") <> None);
  Alcotest.(check bool) "b found" true (ok (Lsm.Index.get index ~key:"b") <> None)

let test_entry_dep_persists_after_full_flush () =
  let _, sched, sb, _, index = make () in
  let dep = Lsm.Index.put index ~key:"a" ~locators:[] ~value_dep:Dep.trivial in
  Alcotest.(check bool) "pending" false (Dep.is_persistent dep);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "sched flush");
  Alcotest.(check bool) "persistent" true (Dep.is_persistent dep)

let test_keys_across_memtable_and_runs () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"b" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 2 ] ~value_dep:Dep.trivial);
  ignore (Lsm.Index.put index ~key:"c" ~locators:[ loc 3 ] ~value_dep:Dep.trivial);
  ignore (Lsm.Index.delete index ~key:"b");
  Alcotest.(check (list string)) "keys" [ "a"; "c" ] (scan_keys index)

let test_newer_run_shadows_older () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 2 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  match ok (Lsm.Index.get index ~key:"a") with
  | Some [ l ] -> Alcotest.(check bool) "newest wins" true (Chunk.Locator.equal l (loc 2))
  | _ -> Alcotest.fail "expected one locator"

let test_compact_merges_runs () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  ignore (Lsm.Index.put index ~key:"b" ~locators:[ loc 2 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  ignore (Lsm.Index.delete index ~key:"a");
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  Alcotest.(check int) "three runs" 3 (Lsm.Index.run_count index);
  (* Levelled: each quiescent compact pushes one victim down a level; a
     few rounds converge to a single fully-compacted deep run. *)
  for _ = 1 to 4 do
    ignore (ok (Lsm.Index.compact index));
    match Lsm.Index.level_invariants index with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "level invariants: %s" msg
  done;
  Alcotest.(check int) "one run" 1 (Lsm.Index.run_count index);
  Alcotest.(check bool) "a gone" true (ok (Lsm.Index.get index ~key:"a") = None);
  Alcotest.(check bool) "b present" true (ok (Lsm.Index.get index ~key:"b") <> None)

let test_recover_after_clean_flush () =
  let _, sched, sb, _, index = make () in
  ignore (Lsm.Index.put index ~key:"x" ~locators:[ loc 7 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:true));
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  ignore (Lsm.Index.put index ~key:"volatile" ~locators:[ loc 8 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.recover index));
  Alcotest.(check bool) "flushed key survives" true (ok (Lsm.Index.get index ~key:"x") <> None);
  Alcotest.(check bool) "volatile key gone" true
    (ok (Lsm.Index.get index ~key:"volatile") = None)

let test_update_locator_in_memtable () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1; loc 2 ] ~value_dep:Dep.trivial);
  let d =
    Lsm.Index.update_locator index ~key:"a" ~old_loc:(loc 1) ~new_loc:(loc 9)
      ~new_dep:Dep.trivial
  in
  Alcotest.(check bool) "update staged" false (Dep.is_persistent d);
  match ok (Lsm.Index.get index ~key:"a") with
  | Some [ l1; l2 ] ->
    Alcotest.(check bool) "replaced" true (Chunk.Locator.equal l1 (loc 9));
    Alcotest.(check bool) "kept" true (Chunk.Locator.equal l2 (loc 2))
  | _ -> Alcotest.fail "expected two locators"

let test_update_locator_in_run () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  ignore
    (Lsm.Index.update_locator index ~key:"a" ~old_loc:(loc 1) ~new_loc:(loc 9)
       ~new_dep:Dep.trivial);
  match ok (Lsm.Index.get index ~key:"a") with
  | Some [ l ] -> Alcotest.(check bool) "shadowed via memtable" true (Chunk.Locator.equal l (loc 9))
  | _ -> Alcotest.fail "expected one locator"

let test_update_locator_stale () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  let d =
    Lsm.Index.update_locator index ~key:"a" ~old_loc:(loc 5) ~new_loc:(loc 9)
      ~new_dep:Dep.trivial
  in
  Alcotest.(check bool) "no-op is trivially persistent" true (Dep.is_persistent d)

let test_relocate_run () =
  let _, _, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"a" ~locators:[ loc 1 ] ~value_dep:Dep.trivial);
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  match Lsm.Index.run_locators index with
  | [ (run_id, _old) ] ->
    ignore (ok (Lsm.Index.relocate_run index ~run_id ~new_loc:(loc 9) ~new_dep:Dep.trivial));
    (match Lsm.Index.run_locators index with
    | [ (_, l) ] -> Alcotest.(check bool) "moved" true (Chunk.Locator.equal l (loc 9))
    | _ -> Alcotest.fail "expected one run")
  | _ -> Alcotest.fail "expected one run"

let test_f3_shutdown_skips_metadata () =
  Faults.disable_all ();
  let _, sched, _, _, index = make () in
  ignore (Lsm.Index.put index ~key:"x" ~locators:[ loc 7 ] ~value_dep:Dep.trivial);
  Lsm.Index.note_extent_reset index;
  Faults.enable Faults.F3_shutdown_skips_metadata;
  ignore (ok (Lsm.Index.flush index ~for_shutdown:true));
  Faults.disable Faults.F3_shutdown_skips_metadata;
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  ignore (ok (Lsm.Index.recover index));
  (* The run was written but the metadata record was skipped: recovery
     cannot see it. *)
  Alcotest.(check bool) "entry lost" true (ok (Lsm.Index.get index ~key:"x") = None);
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F3_shutdown_skips_metadata > 0)

let test_big_memtable_splits_runs () =
  let _, _, _, _, index = make () in
  for i = 0 to 9 do
    ignore
      (Lsm.Index.put index
         ~key:(Printf.sprintf "key-%02d" i)
         ~locators:[ loc i ] ~value_dep:Dep.trivial)
  done;
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false));
  Alcotest.(check bool) "multiple runs from one flush" true (Lsm.Index.run_count index > 1);
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "key-%02d found" i)
      true
      (ok (Lsm.Index.get index ~key:(Printf.sprintf "key-%02d" i)) <> None)
  done

(* {2 Levelled compaction} *)

let flush_kv index pairs =
  List.iter
    (fun (k, i) -> ignore (Lsm.Index.put index ~key:k ~locators:[ loc i ] ~value_dep:Dep.trivial))
    pairs;
  ignore (ok (Lsm.Index.flush index ~for_shutdown:false))

let check_invariants index =
  match Lsm.Index.level_invariants index with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "level invariants: %s" msg

let test_l0_trigger_threshold () =
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_kv index [ ("a", 1) ];
  Alcotest.(check bool) "one L0 run: quiet" false (Lsm.Index.compaction_due index);
  flush_kv index [ ("b", 2) ];
  Alcotest.(check bool) "at trigger: due" true (Lsm.Index.compaction_due index);
  ignore (ok (Lsm.Index.compact index));
  Alcotest.(check bool) "drained" false (Lsm.Index.compaction_due index);
  check_invariants index;
  (* The drain pushed L0 victims into level 1. *)
  (match Lsm.Index.level_runs index with
  | [ _; n1 ] when n1 >= 1 -> ()
  | shape ->
    Alcotest.failf "expected a populated level 1, got [%s]"
      (String.concat ";" (List.map string_of_int shape)));
  Alcotest.(check bool) "a survives" true (ok (Lsm.Index.get index ~key:"a") <> None);
  Alcotest.(check bool) "b survives" true (ok (Lsm.Index.get index ~key:"b") <> None)

(* Overlap rejection as a maintained discipline: interleaved key ranges
   flushed into L0 overlap freely, but every compaction step re-partitions
   them so levels >= 1 stay disjoint — checked after every operation. *)
let test_level_overlap_discipline () =
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_kv index [ ("a", 1); ("e", 2) ];
  flush_kv index [ ("b", 3); ("f", 4) ];
  check_invariants index;
  flush_kv index [ ("c", 5); ("d", 6) ];
  for _ = 1 to 6 do
    (* No GC in this harness, so late rounds may hit extent exhaustion;
       a rejected step must leave the discipline (and the data) intact. *)
    (match Lsm.Index.compact index with
    | Ok _ -> ()
    | Error e -> if not (Lsm.Index.error_is_no_space e) then Alcotest.failf "compact: %a" Lsm.Index.pp_error e);
    check_invariants index
  done;
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " survives") true (ok (Lsm.Index.get index ~key:k) <> None))
    [ "a"; "b"; "c"; "d"; "e"; "f" ]

(* Runs are memoized only while a level holds them. Compaction retires its
   inputs from the memo table, and a compaction that runs out of space
   after writing part of its output forgets the runs it never installed;
   [level_invariants] rejects a memoized run no level holds. *)
let flush_compact_rounds index ~rounds ~keys =
  for round = 0 to rounds - 1 do
    flush_kv index (List.init keys (fun j -> (Printf.sprintf "k%d-%d" j round, j)));
    ignore (ok (Lsm.Index.compact index));
    check_invariants index
  done

(* Monolithic mode: one compaction merges every run and writes the whole
   output. *)
let compact_monolithic index =
  Lsm.Index.configure_levels index ~l0_trigger:0 ~level_ratio:2;
  Lsm.Index.compact index

let test_memo_follows_levels () =
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_compact_rounds index ~rounds:4 ~keys:1;
  ignore (ok (compact_monolithic index));
  check_invariants index;
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_compact_rounds index ~rounds:1 ~keys:5;
  (* This harness has no reclamation: the disk fills after the first of
     the two output runs. *)
  let chunks_written () = Obs.counter_value (Lsm.Index.obs index) "chunk.put" in
  let before = chunks_written () in
  (match compact_monolithic index with
  | Error e when Lsm.Index.error_is_no_space e -> ()
  | Ok _ -> Alcotest.fail "compaction should run out of space"
  | Error e -> Alcotest.failf "compact: %a" Lsm.Index.pp_error e);
  Alcotest.(check int) "one output run written before the failure" 1 (chunks_written () - before);
  check_invariants index;
  List.iter
    (fun j ->
      let k = Printf.sprintf "k%d-0" j in
      Alcotest.(check bool) (k ^ " survives") true (ok (Lsm.Index.get index ~key:k) <> None))
    (List.init 5 Fun.id)

(* A recovery that fails part-way keeps the in-memory levels, so the runs
   it decoded from the older durable record before failing must not stay
   memoized. *)
let test_memo_after_failed_recovery () =
  let disk, sched, sb, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:0 ~level_ratio:2;
  flush_kv index [ ("a", 1); ("b", 2) ];
  flush_kv index [ ("c", 3); ("d", 4) ];
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "sched flush");
  (* Recovery loads the durable record's runs newest first; make the
     second one unreadable. *)
  let newest, oldest =
    match Lsm.Index.run_locators index with
    | [ (_, n); (_, o) ] -> (n, o)
    | _ -> Alcotest.fail "expected two runs"
  in
  Alcotest.(check bool) "runs on distinct extents" true
    (newest.Chunk.Locator.extent <> oldest.Chunk.Locator.extent);
  (* The compaction's output and record are lost in the crash below; the
     in-memory levels hold only its output run. *)
  ignore (ok (Lsm.Index.compact index));
  (match Disk.reset disk ~extent:oldest.Chunk.Locator.extent with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "disk reset");
  ignore
    (Io_sched.crash sched ~rng:(Rng.create 1L) ~persist_probability:0.0 ~split_pages:false);
  (match Lsm.Index.recover index with
  | Error (Lsm.Index.Chunk (Chunk_store.Stale_locator _)) -> ()
  | Ok () -> Alcotest.fail "recovery should fail"
  | Error e -> Alcotest.failf "recover: %a" Lsm.Index.pp_error e);
  check_invariants index

(* Relocation during reclaim: moving a run's chunk must leave the level
   structure (and the recorded ranges) untouched. *)
let test_relocate_preserves_levels () =
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_kv index [ ("a", 1) ];
  flush_kv index [ ("b", 2) ];
  ignore (ok (Lsm.Index.compact index));
  check_invariants index;
  let shape_before = Lsm.Index.level_runs index in
  (match Lsm.Index.run_locators index with
  | (run_id, _) :: _ ->
    ignore (ok (Lsm.Index.relocate_run index ~run_id ~new_loc:(loc 9) ~new_dep:Dep.trivial))
  | [] -> Alcotest.fail "expected runs");
  check_invariants index;
  Alcotest.(check (list int)) "level shape unchanged" shape_before (Lsm.Index.level_runs index);
  Alcotest.(check bool) "a survives" true (ok (Lsm.Index.get index ~key:"a") <> None);
  Alcotest.(check bool) "b survives" true (ok (Lsm.Index.get index ~key:"b") <> None)

(* Metadata roundtrip for the levelled tree: recovery rebuilds the level
   assignment from the skeleton record and recomputes ranges by reloading
   run contents. *)
let test_recover_levelled_tree () =
  let _, sched, sb, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_kv index [ ("a", 1); ("c", 2) ];
  flush_kv index [ ("b", 3) ];
  ignore (ok (Lsm.Index.compact index));
  check_invariants index;
  let shape = Lsm.Index.level_runs index in
  let keys_before = scan_keys index in
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "sched flush");
  ignore (ok (Lsm.Index.recover index));
  check_invariants index;
  Alcotest.(check (list int)) "level shape recovered" shape (Lsm.Index.level_runs index);
  Alcotest.(check (list string)) "keys recovered" keys_before (scan_keys index)

(* A scan merges the memtable over the runs (a staged put and a staged
   tombstone shadow them), honours its bounds, and returns the state at
   the call. *)
let test_scan_snapshot () =
  let _, _, _, _, index = make () in
  Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
  flush_kv index [ ("a", 1); ("c", 2) ];
  flush_kv index [ ("d", 3) ];
  ignore (Lsm.Index.put index ~key:"b" ~locators:[ loc 4 ] ~value_dep:Dep.trivial);
  ignore (Lsm.Index.delete index ~key:"c");
  let snapshot = scan_keys index in
  ignore (Lsm.Index.put index ~key:"e" ~locators:[ loc 5 ] ~value_dep:Dep.trivial);
  Alcotest.(check (list string)) "memtable shadows the runs" [ "a"; "b"; "d" ] snapshot;
  Alcotest.(check (list string)) "bounded scan" [ "b"; "d" ] (scan_keys ~lo:"b" ~hi:"d" index);
  Alcotest.(check (list string)) "later put seen" [ "a"; "b"; "d"; "e" ] (scan_keys index)

(* Property: the levelled index against the composed per-level reference
   model — same ops, equal scans (keys and locators), and both sides'
   per-level invariants hold after every step. The model's value for a
   key is the number of its index locator. *)
let prop_index_matches_level_model =
  QCheck.Test.make ~name:"levelled index conforms to Level_model" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, _, _, index = make () in
      Lsm.Index.configure_levels index ~l0_trigger:2 ~level_ratio:2;
      let model = Model.Level_model.create ~l0_trigger:2 ~level_ratio:2 () in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
      let ok = ref true in
      let scans_agree ~lo ~hi =
        match Lsm.Index.scan index ~lo ~hi with
        | Error _ -> false
        | Ok entries ->
          List.map
            (fun (k, locs) ->
              (k, String.concat "," (List.map (fun l -> string_of_int (l.Chunk.Locator.off / 32)) locs)))
            entries
          = Model.Level_model.scan model ~lo ~hi
      in
      for i = 0 to 49 do
        let key = Rng.pick rng keys in
        (match Rng.int rng 8 with
        | 0 | 1 | 2 ->
          ignore (Lsm.Index.put index ~key ~locators:[ loc (i mod 13) ] ~value_dep:Dep.trivial);
          Model.Level_model.put model ~key ~value:(string_of_int (i mod 13))
        | 3 ->
          ignore (Lsm.Index.delete index ~key);
          Model.Level_model.delete model ~key
        | 4 -> (
          (* Tiny geometry: extent exhaustion is legal, and on it the
             index keeps its memtable while the model must not flush. *)
          match Lsm.Index.flush index ~for_shutdown:false with
          | Ok _ -> Model.Level_model.flush model
          | Error e -> if not (Lsm.Index.error_is_no_space e) then ok := false)
        | 5 -> (
          match Lsm.Index.compact index with
          | Ok _ -> Model.Level_model.compact model
          | Error e -> if not (Lsm.Index.error_is_no_space e) then ok := false)
        | _ ->
          let lo = if Rng.int rng 3 = 0 then None else Some (Rng.pick rng keys) in
          let hi = if Rng.int rng 3 = 0 then None else Some (Rng.pick rng keys) in
          let lo, hi =
            match (lo, hi) with
            | Some l, Some h when String.compare l h > 0 -> (Some h, Some l)
            | pair -> pair
          in
          if not (scans_agree ~lo ~hi) then ok := false);
        (match Lsm.Index.level_invariants index with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "step %d: index level invariants: %s" i msg);
        match Model.Level_model.invariants model with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "step %d: model level invariants: %s" i msg
      done;
      !ok && scans_agree ~lo:None ~hi:None)

(* Property: a full-range scan returns, for every key, what [get] returns
   (the live keys with their locators, in key order), whatever mix of
   memtable, overlapping level-0 runs and deeper levels holds the
   entries: the store's listing and liveness pass read this scan. *)
let prop_full_scan_matches_gets =
  QCheck.Test.make ~name:"full-range scan locators match gets" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, _, _, index = make () in
      Lsm.Index.configure_levels index ~l0_trigger:4 ~level_ratio:2;
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
      (* [keys] is sorted; a failed get drops its key, so the scan (which
         would fail as well) cannot match. *)
      let lookups () =
        List.filter_map
          (fun key ->
            match Lsm.Index.get index ~key with
            | Ok (Some locs) -> Some (key, locs)
            | Ok None | Error _ -> None)
          (Array.to_list keys)
      in
      let ok = ref true in
      for i = 0 to 59 do
        let key = Rng.pick rng keys in
        (match Rng.int rng 8 with
        | 0 | 1 | 2 ->
          ignore
            (Lsm.Index.put index ~key ~locators:[ loc i; loc (i + 100) ] ~value_dep:Dep.trivial)
        | 3 -> ignore (Lsm.Index.delete index ~key)
        (* Extent exhaustion is legal: this harness runs no reclamation. *)
        | 4 | 5 -> ignore (Lsm.Index.flush index ~for_shutdown:false)
        | 6 -> ignore (Lsm.Index.compact index)
        | _ -> ());
        match Lsm.Index.scan index ~lo:None ~hi:None with
        | Ok scanned -> if scanned <> lookups () then ok := false
        | Error _ -> ok := false
      done;
      !ok)

(* Property: the index against a plain map under random put/delete/flush/
   compact/recover traffic (the Fig. 3 pattern at the component level). *)
let prop_index_matches_map =
  QCheck.Test.make ~name:"index conforms to map under maintenance" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, sched, sb, _, index = make () in
      let model : (string, Chunk.Locator.t list) Hashtbl.t = Hashtbl.create 16 in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d" |] in
      let ok = ref true in
      let check key =
        let expected = Hashtbl.find_opt model key in
        match Lsm.Index.get index ~key with
        | Ok actual ->
          if actual <> expected then ok := false
        | Error _ -> ok := false
      in
      for i = 0 to 39 do
        let key = Rng.pick rng keys in
        match Rng.int rng 7 with
        | 0 | 1 ->
          let locs = [ loc (i mod 13) ] in
          ignore (Lsm.Index.put index ~key ~locators:locs ~value_dep:Dep.trivial);
          Hashtbl.replace model key locs
        | 2 ->
          ignore (Lsm.Index.delete index ~key);
          Hashtbl.remove model key
        | 3 -> check key
        (* Extent exhaustion is legal here: this harness runs no garbage
           collection, so runs pile up until flushes are rejected. *)
        | 4 -> (
          match Lsm.Index.flush index ~for_shutdown:false with
          | Ok _ -> ()
          | Error e -> if not (Lsm.Index.error_is_no_space e) then ok := false)
        | 5 -> (
          match Lsm.Index.compact index with
          | Ok _ -> ()
          | Error e -> if not (Lsm.Index.error_is_no_space e) then ok := false)
        | _ -> (
          (* Clean reboot of the index component; a shutdown whose flush
             was rejected (disk full) is aborted, like the store's
             clean_shutdown — recovery would lose the unflushed memtable. *)
          match Lsm.Index.flush index ~for_shutdown:true with
          | Error e -> if not (Lsm.Index.error_is_no_space e) then ok := false
          | Ok _ ->
            (match Superblock.flush sb with Ok _ -> () | Error _ -> ok := false);
            (match Io_sched.flush sched with Ok () -> () | Error _ -> ok := false);
            (match Lsm.Index.recover index with Ok () -> () | Error _ -> ok := false))
      done;
      Array.iter check keys;
      !ok)

let random_entry rng =
  if Rng.int rng 4 = 0 then Lsm.Entry.Tombstone
  else
    Lsm.Entry.Put
      (List.init (Rng.int rng 4) (fun _ ->
           {
             Chunk.Locator.extent = Rng.int rng 1024;
             epoch = Rng.int rng 1_000_000;
             off = Rng.int rng (1 lsl 25);
             frame_len = Rng.int rng 70_000;
           }))

let prop_entry_encoded_size =
  QCheck.Test.make ~name:"encoded_size is the encoded length" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let e = random_entry (Rng.of_int seed) in
      let w = Codec.Writer.create () in
      Lsm.Entry.encode w e;
      Lsm.Entry.encoded_size e = Codec.Writer.length w)

(* Paper section 7: the run and entry decoders read untrusted on-disk
   bytes, so they must be total — an [Error] on any input, never an
   exception. Each property feeds arbitrary bytes, and a valid encoding of
   a random value with a few bytes overwritten and its tail cut, so the
   element decoders and the checks after them are reached too. *)
let mangle rng s =
  let b = Bytes.of_string s in
  for _ = 1 to Rng.int rng 3 do
    let n = Bytes.length b in
    if n > 0 then Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
  done;
  Bytes.sub_string b 0 (Bytes.length b - Rng.int rng (1 + Bytes.length b / 4))

let prop_run_decode_total =
  let module Smap = Map.Make (String) in
  QCheck.Test.make ~name:"Run.decode total on arbitrary bytes" ~count:3000
    QCheck.(pair (string_of_size Gen.(0 -- 120)) (int_bound 1_000_000))
    (fun (s, seed) ->
      let rng = Rng.of_int seed in
      let pairs =
        List.init (Rng.int rng 6) (fun _ ->
            (String.make (1 + Rng.int rng 2) (Char.chr (97 + Rng.int rng 4)), random_entry rng))
        |> List.fold_left (fun m (k, e) -> Smap.add k e m) Smap.empty
        |> Smap.bindings
      in
      let _ = Lsm.Run.decode s in
      let _ = Lsm.Run.decode (mangle rng (Lsm.Run.encode (Lsm.Run.of_pairs pairs))) in
      true)

let prop_entry_decode_total =
  QCheck.Test.make ~name:"Entry.decode total on arbitrary bytes" ~count:3000
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (int_bound 1_000_000))
    (fun (s, seed) ->
      let rng = Rng.of_int seed in
      let w = Codec.Writer.create () in
      Lsm.Entry.encode w (random_entry rng);
      let _ = Lsm.Entry.decode (Codec.Reader.of_string s) in
      let _ = Lsm.Entry.decode (Codec.Reader.of_string (mangle rng (Codec.Writer.contents w))) in
      true)

(* [Run.of_pairs] takes strictly ascending pairs as they are, and
   rejects anything else: every caller hands over a memtable's bindings or
   a merged run's pairs. *)
let prop_of_pairs_ascending =
  let module Smap = Map.Make (String) in
  QCheck.Test.make ~name:"of_pairs keeps ascending pairs, rejects others" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let raw =
        List.init (Rng.int rng 12) (fun _ ->
            (String.make (1 + Rng.int rng 2) (Char.chr (97 + Rng.int rng 4)), random_entry rng))
      in
      let sorted =
        Smap.bindings (List.fold_left (fun m (k, e) -> Smap.add k e m) Smap.empty raw)
      in
      let actual = Lsm.Run.to_list (Lsm.Run.of_pairs sorted) in
      let kept =
        List.length actual = List.length sorted
        && List.for_all2
             (fun (k, e) (k', e') -> String.equal k k' && Lsm.Entry.equal e e')
             actual sorted
      in
      let rejected =
        match sorted with
        | a :: b :: rest -> (
          let unsorted = b :: a :: rest and duplicated = a :: a :: b :: rest in
          List.for_all
            (fun pairs ->
              match Lsm.Run.of_pairs pairs with
              | _ -> false
              | exception Invalid_argument _ -> true)
            [ unsorted; duplicated ])
        | [ _ ] | [] -> true
      in
      kept && rejected)

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "lsm"
    [
      ( "index",
        [
          Alcotest.test_case "put/get memtable" `Quick test_put_get_memtable;
          Alcotest.test_case "delete shadows" `Quick test_delete_shadows;
          Alcotest.test_case "flush then get from run" `Quick test_flush_then_get_from_run;
          Alcotest.test_case "entry dep persists after full flush" `Quick
            test_entry_dep_persists_after_full_flush;
          Alcotest.test_case "keys across memtable and runs" `Quick
            test_keys_across_memtable_and_runs;
          Alcotest.test_case "newer run shadows older" `Quick test_newer_run_shadows_older;
          Alcotest.test_case "compact merges runs" `Quick test_compact_merges_runs;
          Alcotest.test_case "recover after clean flush" `Quick test_recover_after_clean_flush;
          Alcotest.test_case "big memtable splits runs" `Quick test_big_memtable_splits_runs;
          QCheck_alcotest.to_alcotest prop_index_matches_map;
        ] );
      ( "levels",
        [
          Alcotest.test_case "l0 trigger threshold" `Quick test_l0_trigger_threshold;
          Alcotest.test_case "overlap discipline" `Quick test_level_overlap_discipline;
          Alcotest.test_case "memo follows levels" `Quick test_memo_follows_levels;
          Alcotest.test_case "memo after failed recovery" `Quick test_memo_after_failed_recovery;
          Alcotest.test_case "relocation preserves levels" `Quick
            test_relocate_preserves_levels;
          Alcotest.test_case "recover levelled tree" `Quick test_recover_levelled_tree;
          Alcotest.test_case "scan cursor snapshot" `Quick test_scan_snapshot;
          QCheck_alcotest.to_alcotest prop_index_matches_level_model;
          QCheck_alcotest.to_alcotest prop_full_scan_matches_gets;
        ] );
      ( "runs",
        [
          QCheck_alcotest.to_alcotest prop_entry_encoded_size;
          QCheck_alcotest.to_alcotest prop_run_decode_total;
          QCheck_alcotest.to_alcotest prop_entry_decode_total;
          QCheck_alcotest.to_alcotest prop_of_pairs_ascending;
        ] );
      ( "reclamation callbacks",
        [
          Alcotest.test_case "update locator in memtable" `Quick test_update_locator_in_memtable;
          Alcotest.test_case "update locator in run" `Quick test_update_locator_in_run;
          Alcotest.test_case "update locator stale" `Quick test_update_locator_stale;
          Alcotest.test_case "relocate run" `Quick test_relocate_run;
        ] );
      ( "faults",
        [
          Alcotest.test_case "#3 shutdown skips metadata" `Quick test_f3_shutdown_skips_metadata;
        ] );
    ]
