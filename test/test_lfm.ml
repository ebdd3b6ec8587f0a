(* Tests for the validation framework itself: generators, the conformance
   harness (clean baselines as qcheck properties), the minimizer, and the
   detection driver. *)

let config = Lfm.Harness.default_config

let test_gen_deterministic () =
  let gen seed =
    let rng = Util.Rng.create (Int64.of_int seed) in
    Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Full ~page_size:64
      ~extent_count:12 ~length:50
  in
  Alcotest.(check bool) "same seed same ops" true (gen 7 = gen 7);
  Alcotest.(check bool) "different seeds differ" true (gen 7 <> gen 8)

let test_gen_profiles () =
  let rng = Util.Rng.create 5L in
  let ops =
    Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Crash_free ~page_size:64
      ~extent_count:12 ~length:300
  in
  Alcotest.(check bool) "no reboots in crash-free" true
    (not (List.exists Lfm.Op.is_reboot ops));
  Alcotest.(check bool) "no failures in crash-free" true
    (not (List.exists Lfm.Op.is_failure ops));
  let rng = Util.Rng.create 5L in
  let ops =
    Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Full ~page_size:64
      ~extent_count:12 ~length:300
  in
  Alcotest.(check bool) "full has reboots" true (List.exists Lfm.Op.is_reboot ops);
  Alcotest.(check bool) "full has failures" true (List.exists Lfm.Op.is_failure ops)

let test_gen_key_reuse_bias () =
  let count_hits bias =
    let rng = Util.Rng.create 17L in
    let ops =
      Lfm.Gen.sequence ~rng ~bias ~profile:Lfm.Gen.Crash_free ~page_size:64 ~extent_count:12
        ~length:400
    in
    let put = Hashtbl.create 16 in
    List.fold_left
      (fun hits op ->
        match op with
        | Lfm.Op.Put (k, _) ->
          Hashtbl.replace put k ();
          hits
        | Lfm.Op.Get k -> if Hashtbl.mem put k then hits + 1 else hits
        | _ -> hits)
      0 ops
  in
  Alcotest.(check bool) "bias increases hit rate" true
    (count_hits Lfm.Gen.default_bias > count_hits Lfm.Gen.unbiased)

let batch_bias = { Lfm.Gen.default_bias with Lfm.Gen.batch_weight = 8 }

let test_gen_batch_weight () =
  let count_batches bias =
    let rng = Util.Rng.create 9L in
    let ops =
      Lfm.Gen.sequence ~rng ~bias ~profile:Lfm.Gen.Crash_free ~page_size:64 ~extent_count:12
        ~length:300
    in
    List.length
      (List.filter
         (function Lfm.Op.PutBatch _ | Lfm.Op.DeleteBatch _ -> true | _ -> false)
         ops)
  in
  (* The deterministic detection experiments depend on the default alphabet
     staying exactly as it was, so batch ops must be strictly opt-in. *)
  Alcotest.(check int) "default alphabet has no batch ops" 0
    (count_batches Lfm.Gen.default_bias);
  Alcotest.(check bool) "batch_weight adds batch ops" true (count_batches batch_bias > 0)

let scan_bias = { Lfm.Gen.default_bias with Lfm.Gen.scan_weight = 6 }

let test_gen_scan_weight () =
  let count_scans bias =
    let rng = Util.Rng.create 9L in
    let ops =
      Lfm.Gen.sequence ~rng ~bias ~profile:Lfm.Gen.Crash_free ~page_size:64 ~extent_count:12
        ~length:300
    in
    List.length (List.filter (function Lfm.Op.Scan _ -> true | _ -> false) ops)
  in
  (* Same contract as batch ops: scans join the alphabet strictly opt-in so
     the deterministic detection experiments keep their default sequences. *)
  Alcotest.(check int) "default alphabet has no scan ops" 0
    (count_scans Lfm.Gen.default_bias);
  Alcotest.(check bool) "scan_weight adds scan ops" true (count_scans scan_bias > 0)

let test_summary () =
  let ops =
    [
      Lfm.Op.Put ("k", String.make 100 'x');
      Lfm.Op.Get "k";
      Lfm.Op.DirtyReboot
        { Lfm.Op.flush_index = false; flush_superblock = false; persist_probability = 0.5;
          split_pages = false };
    ]
  in
  let s = Lfm.Op.summarize ops in
  Alcotest.(check int) "ops" 3 s.Lfm.Op.ops;
  Alcotest.(check int) "crashes" 1 s.Lfm.Op.crashes;
  Alcotest.(check int) "bytes" 100 s.Lfm.Op.bytes

(* The paper's core claim, as qcheck properties: the correct implementation
   refines the reference model on random sequences in every profile. *)
let baseline_prop profile =
  QCheck.Test.make
    ~name:(Printf.sprintf "conformance baseline (%s)" (Lfm.Gen.profile_name profile))
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Faults.disable_all ();
      let _, outcome =
        Lfm.Harness.run_seed config ~profile ~bias:Lfm.Gen.default_bias ~length:50 ~seed
      in
      match outcome with
      | Lfm.Harness.Passed -> true
      | Lfm.Harness.Failed f ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Lfm.Harness.pp_failure f)

(* Batch conformance (the group-commit tentpole): sequences rich in
   PutBatch/DeleteBatch must refine the same reference model as their
   sequential expansion — the model applies a batch one key at a time, so
   any divergence in the batched implementation (ordering, lost ops,
   mis-shared dependencies from IO coalescing) fails refinement. The
   crash-enumeration hook extends the check to every dependency-closed
   crash prefix, i.e. every point at which a half-durable batch could be
   torn by power loss. *)
let batch_conformance_prop =
  QCheck.Test.make ~name:"batch conformance (batch = sequential, incl. crash prefixes)"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Faults.disable_all ();
      let acc = ref { Lfm.Crash_enum.states = 0; truncated = false } in
      let cfg =
        { config with Lfm.Harness.pre_crash_hook = Some (Lfm.Crash_enum.hook ~max_states:24 ~acc) }
      in
      let _, outcome =
        Lfm.Harness.run_seed cfg ~profile:Lfm.Gen.Crashing ~bias:batch_bias ~length:40 ~seed
      in
      match outcome with
      | Lfm.Harness.Passed -> true
      | Lfm.Harness.Failed f ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Lfm.Harness.pp_failure f)

(* Scan conformance (the range-scan tentpole): sequences rich in Scan ops
   must return, through the whole stack, exactly the key/value pairs the
   reference model admits over [lo, hi] — in order, in bounds, with no
   phantom or missing keys. Running under the Crashing profile with the
   crash-enumeration hook extends the check across dependency-closed crash
   prefixes, so a scan observed after a dirty reboot must still agree with
   the crash model's reconciled view (levelled relocation through Dep is
   what makes this hold). *)
let scan_conformance_prop =
  QCheck.Test.make ~name:"scan conformance (cursor = model range, incl. crash prefixes)"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Faults.disable_all ();
      let acc = ref { Lfm.Crash_enum.states = 0; truncated = false } in
      let cfg =
        { config with Lfm.Harness.pre_crash_hook = Some (Lfm.Crash_enum.hook ~max_states:24 ~acc) }
      in
      let _, outcome =
        Lfm.Harness.run_seed cfg ~profile:Lfm.Gen.Crashing ~bias:scan_bias ~length:40 ~seed
      in
      match outcome with
      | Lfm.Harness.Passed -> true
      | Lfm.Harness.Failed f ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Lfm.Harness.pp_failure f)

let test_harness_catches_seeded_divergence () =
  (* Enable a fault and confirm the harness is what catches it. *)
  Faults.disable_all ();
  Faults.enable Faults.F2_cache_not_drained;
  Fun.protect
    ~finally:(fun () -> Faults.disable_all ())
    (fun () ->
      let found = ref false in
      let seed = ref 0 in
      while (not !found) && !seed < 400 do
        let _, outcome =
          Lfm.Harness.run_seed config ~profile:Lfm.Gen.Crash_free ~bias:Lfm.Gen.default_bias
            ~length:60 ~seed:!seed
        in
        (match outcome with Lfm.Harness.Failed _ -> found := true | _ -> ());
        incr seed
      done;
      Alcotest.(check bool) "fault #2 caught" true !found)

let test_minimizer_reduces () =
  (* Synthetic failing predicate: fails iff the sequence contains a Compact
     and a Reclaim; the minimizer should get to exactly two operations. *)
  let still_fails ops =
    List.exists (fun o -> o = Lfm.Op.Compact) ops
    && List.exists (fun o -> o = Lfm.Op.Reclaim) ops
  in
  let rng = Util.Rng.create 23L in
  let rec gen_failing () =
    let ops =
      Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Full ~page_size:64
        ~extent_count:12 ~length:60
    in
    if still_fails ops then ops else gen_failing ()
  in
  let ops = gen_failing () in
  let minimized, stats = Lfm.Minimize.minimize ~still_fails ops in
  Alcotest.(check int) "two ops" 2 (List.length minimized);
  Alcotest.(check bool) "still fails" true (still_fails minimized);
  Alcotest.(check bool) "stats consistent" true
    (stats.Lfm.Minimize.minimized.Lfm.Op.ops = 2
    && stats.Lfm.Minimize.original.Lfm.Op.ops = 60)

let test_minimizer_shrinks_real_counterexample () =
  (* Fault #4 is cheap to find; its minimized counterexample should be a
     handful of operations. *)
  Faults.disable_all ();
  let r = Lfm.Detect.detect ~max_sequences:500 ~minimize:true ~seed:11 Faults.F4_disk_return_loses_shards in
  Alcotest.(check bool) "found" true r.Lfm.Detect.found;
  match r.Lfm.Detect.minimized with
  | Some m ->
    Alcotest.(check bool)
      (Printf.sprintf "small (%d ops)" m.Lfm.Op.ops)
      true (m.Lfm.Op.ops <= 12)
  | None -> Alcotest.fail "expected minimized counterexample"

let test_detect_fast_faults () =
  Faults.disable_all ();
  List.iter
    (fun fault ->
      let r = Lfm.Detect.detect ~max_sequences:2000 ~minimize:false ~seed:77 fault in
      Alcotest.(check bool) (Format.asprintf "%a found" Faults.pp fault) true r.Lfm.Detect.found)
    [
      Faults.F1_reclaim_off_by_one;
      Faults.F3_shutdown_skips_metadata;
      Faults.F4_disk_return_loses_shards;
      Faults.F9_model_crash_reconcile;
      Faults.F15_model_locator_reuse;
    ]

let test_method_mapping () =
  List.iter
    (fun fault ->
      let m = Lfm.Detect.method_for fault in
      let expected_class = Faults.property_class fault in
      match m, expected_class with
      | Lfm.Detect.Smc, Faults.Concurrency -> ()
      | (Lfm.Detect.Pbt _ | Lfm.Detect.Model_validation), (Faults.Functional_correctness | Faults.Crash_consistency) -> ()
      | Lfm.Detect.Model_validation, Faults.Concurrency -> ()  (* #15 is cataloged under concurrency *)
      | _ ->
        Alcotest.failf "fault %a: method %s vs class %s" Faults.pp fault
          (Lfm.Detect.method_name m)
          (Faults.property_class_name expected_class))
    Faults.all

let test_fault_registry () =
  Alcotest.(check int) "16 faults" 16 (List.length Faults.all);
  List.iteri
    (fun i fault ->
      Alcotest.(check int) "numbering" (i + 1) (Faults.number fault);
      Alcotest.(check bool) "description nonempty" true (String.length (Faults.description fault) > 0);
      Alcotest.(check bool) "of_number inverse" true (Faults.of_number (i + 1) = Some fault))
    Faults.all;
  Faults.enable Faults.F1_reclaim_off_by_one;
  Alcotest.(check bool) "enabled" true (Faults.enabled Faults.F1_reclaim_off_by_one);
  Faults.disable_all ();
  Alcotest.(check bool) "disabled" false (Faults.enabled Faults.F1_reclaim_off_by_one);
  let r = Faults.with_fault Faults.F2_cache_not_drained (fun () -> Faults.enabled Faults.F2_cache_not_drained) in
  Alcotest.(check bool) "with_fault scopes" true (r && not (Faults.enabled Faults.F2_cache_not_drained))

let test_chunk_harness () =
  Faults.disable_all ();
  (* honest code clean *)
  for seed = 0 to 99 do
    match Lfm.Chunk_harness.run ~seed ~length:40 with
    | _, Lfm.Chunk_harness.Passed -> ()
    | _, Lfm.Chunk_harness.Failed f ->
      Alcotest.failf "component baseline (seed %d): %a" seed Lfm.Chunk_harness.pp_failure f
  done;
  (* component-level detection of the reclamation faults *)
  List.iter
    (fun fault ->
      let hit =
        Lfm.Detect.hunt fault ~seed:31 ~count:2_000 (fun s ->
            match Lfm.Chunk_harness.run ~seed:s ~length:40 with
            | _, Lfm.Chunk_harness.Failed _ -> Some ()
            | _, Lfm.Chunk_harness.Passed -> None)
      in
      Alcotest.(check bool) (Format.asprintf "%a found at component level" Faults.pp fault) true
        (Option.is_some hit))
    [ Faults.F1_reclaim_off_by_one; Faults.F5_reclaim_forgets_on_read_error ];
  (* determinism *)
  let a = Lfm.Chunk_harness.run ~seed:5 ~length:40 in
  let b = Lfm.Chunk_harness.run ~seed:5 ~length:40 in
  Alcotest.(check bool) "deterministic" true (a = b)

let test_crash_enum_clean_and_detects () =
  (* The exhaustive block-level enumerator (section 5): clean on honest
     code, and it finds the crash-consistency defect #8. *)
  Faults.disable_all ();
  let run_with_enum ~seed =
    let acc = ref { Lfm.Crash_enum.states = 0; truncated = false } in
    let cfg =
      { config with Lfm.Harness.pre_crash_hook = Some (Lfm.Crash_enum.hook ~max_states:1_000 ~acc) }
    in
    let _, outcome =
      Lfm.Harness.run_seed cfg ~profile:Lfm.Gen.Crashing ~bias:Lfm.Gen.default_bias ~length:50
        ~seed
    in
    (outcome, !acc)
  in
  let states = ref 0 in
  for seed = 0 to 9 do
    let outcome, acc = run_with_enum ~seed in
    states := !states + acc.Lfm.Crash_enum.states;
    match outcome with
    | Lfm.Harness.Passed -> ()
    | Lfm.Harness.Failed f ->
      Alcotest.failf "honest code violated in enumerated crash state (seed %d): %a" seed
        Lfm.Harness.pp_failure f
  done;
  Alcotest.(check bool) "enumerated many states" true (!states > 100);
  Faults.enable Faults.F8_missing_pointer_dep;
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 50 do
    (match run_with_enum ~seed:!seed with
    | Lfm.Harness.Failed _, _ -> found := true
    | _ -> ());
    incr seed
  done;
  Faults.disable_all ();
  Alcotest.(check bool) "#8 found by enumeration" true !found

(* Crash states against a brute-force reference (paper section 5). At
   every DirtyReboot of Crashing seeds 0-59, Io_sched.crash_states must
   yield exactly the reference's states: every per-extent choice of a
   queue prefix, optionally followed by the next append torn at a page
   boundary, kept when each write it persists, whole or torn, has its
   input persisted whole. States are compared by the disk each leaves,
   which determines the state (per extent, epochs and write pointers only
   grow along the queue), so a repeated disk is a state yielded twice. *)
let reference_states ~page_size disk pending =
  let cuts (w : Dep.write) =
    match w.Dep.kind with
    | Dep.Reset _ -> []
    | Dep.Append { off; data } ->
      let rec go b acc =
        if b >= off + String.length data then List.rev acc else go (b + page_size) ((b - off) :: acc)
      in
      go (((off / page_size) + 1) * page_size) []
  in
  (* One extent's choices: (persisted whole, torn write and cut). *)
  let choices queue =
    let rec go taken rest acc =
      let acc = (taken, None) :: acc in
      match rest with
      | [] -> acc
      | w :: rest' ->
        let acc = List.fold_left (fun acc cut -> (taken, Some (w, cut)) :: acc) acc (cuts w) in
        go (w :: taken) rest' acc
    in
    go [] queue []
  in
  let extents = List.sort_uniq compare (List.map (fun (w : Dep.write) -> w.Dep.extent) pending) in
  let per_extent =
    List.map
      (fun e -> choices (List.filter (fun (w : Dep.write) -> w.Dep.extent = e) pending))
      extents
  in
  let size = List.fold_left (fun n cs -> if n > 300_000 then n else n * List.length cs) 1 per_extent in
  if size > 300_000 then None
  else begin
    let io = function Ok () -> () | Error e -> Alcotest.failf "reference write: %a" Disk.pp_io_error e in
    let apply combo d =
      List.iter
        (fun (whole, torn) ->
          List.iter
            (fun (w : Dep.write) ->
              match w.Dep.kind with
              | Dep.Append { off; data } -> io (Disk.write d ~extent:w.Dep.extent ~off data)
              | Dep.Reset { epoch } -> io (Disk.reset ~epoch d ~extent:w.Dep.extent))
            (List.rev whole);
          match torn with
          | Some ({ Dep.kind = Dep.Append { off; data }; extent; _ }, cut) ->
            io (Disk.write d ~extent ~off (String.sub data 0 cut))
          | Some _ | None -> ())
        combo
    in
    let states = ref [] in
    let rec product combo = function
      | [] ->
        let persisted = List.concat_map fst combo in
        let pred w = List.memq w persisted in
        let holds (w : Dep.write) = Dep.persistent_under pred w.Dep.input in
        if List.for_all holds persisted
           && List.for_all (function _, Some (w, _) -> holds w | _, None -> true) combo
        then begin
          let d = Disk.copy disk in
          apply combo d;
          states := d :: !states
        end
      | cs :: rest -> List.iter (fun c -> product (c :: combo) rest) cs
    in
    product [] per_extent;
    Some !states
  end

let disk_image d =
  String.concat "|"
    (List.init (Disk.config d).Disk.extent_count (fun extent ->
         Printf.sprintf "%d.%d.%s" (Disk.hard_ptr d ~extent) (Disk.epoch d ~extent)
           (Disk.durable_image d ~extent)))

let test_crash_states_match_reference () =
  Faults.disable_all ();
  let points = ref 0 in
  let hook store _model =
    let sched = Lfm.Harness.S.sched store and disk = Lfm.Harness.S.disk store in
    match
      reference_states ~page_size:(Io_sched.page_size sched) disk (Io_sched.pending_writes sched)
    with
    | None -> None
    | Some reference ->
      incr points;
      let images ds = List.sort compare (List.map disk_image ds) in
      let enumerated =
        List.of_seq
          (Seq.map
             (fun state ->
               let d = Disk.copy disk in
               Io_sched.write_state sched state d;
               d)
             (Io_sched.crash_states sched))
      in
      let enumerated = images enumerated and reference = images reference in
      if enumerated = reference then None
      else
        Some
          (Printf.sprintf "crash_states yields %d states (%d distinct), the reference %d"
             (List.length enumerated)
             (List.length (List.sort_uniq compare enumerated))
             (List.length reference))
  in
  let cfg = { config with Lfm.Harness.pre_crash_hook = Some hook } in
  for seed = 0 to 59 do
    match
      Lfm.Harness.run_seed cfg ~profile:Lfm.Gen.Crashing ~bias:Lfm.Gen.default_bias ~length:50
        ~seed
    with
    | _, Lfm.Harness.Passed -> ()
    | _, Lfm.Harness.Failed f -> Alcotest.failf "seed %d: %a" seed Lfm.Harness.pp_failure f
  done;
  Alcotest.(check bool) (Printf.sprintf "%d crash points compared" !points) true (!points >= 150)

let test_replay_deterministic () =
  let ops, outcome1 =
    Lfm.Harness.run_seed config ~profile:Lfm.Gen.Full ~bias:Lfm.Gen.default_bias ~length:60
      ~seed:31337
  in
  let outcome2 = Lfm.Harness.run config ops in
  Alcotest.(check bool) "same outcome" true (outcome1 = outcome2)

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "lfm"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "profiles" `Quick test_gen_profiles;
          Alcotest.test_case "key reuse bias" `Quick test_gen_key_reuse_bias;
          Alcotest.test_case "batch weight opt-in" `Quick test_gen_batch_weight;
          Alcotest.test_case "scan weight opt-in" `Quick test_gen_scan_weight;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "conformance",
        [
          QCheck_alcotest.to_alcotest (baseline_prop Lfm.Gen.Crash_free);
          QCheck_alcotest.to_alcotest (baseline_prop Lfm.Gen.Crashing);
          QCheck_alcotest.to_alcotest (baseline_prop Lfm.Gen.Failing);
          QCheck_alcotest.to_alcotest (baseline_prop Lfm.Gen.Full);
          QCheck_alcotest.to_alcotest batch_conformance_prop;
          QCheck_alcotest.to_alcotest scan_conformance_prop;
          Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "catches seeded divergence" `Quick
            test_harness_catches_seeded_divergence;
          Alcotest.test_case "exhaustive crash enumeration" `Quick
            test_crash_enum_clean_and_detects;
          Alcotest.test_case "crash states match the filtering reference" `Quick
            test_crash_states_match_reference;
          Alcotest.test_case "component-level chunk harness" `Quick test_chunk_harness;
        ] );
      ( "minimization",
        [
          Alcotest.test_case "reduces synthetic failure" `Quick test_minimizer_reduces;
          Alcotest.test_case "shrinks real counterexample" `Quick
            test_minimizer_shrinks_real_counterexample;
        ] );
      ( "detection",
        [
          Alcotest.test_case "fast faults found" `Quick test_detect_fast_faults;
          Alcotest.test_case "method mapping" `Quick test_method_mapping;
          Alcotest.test_case "fault registry" `Quick test_fault_registry;
        ] );
    ]
