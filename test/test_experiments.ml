(* Smoke tests for the experiment drivers: each runs end-to-end at a tiny
   budget and produces structurally sensible reports. *)

let test_fig6 () =
  let r = Experiments.Fig6.run () in
  Alcotest.(check bool) "has rows" true (List.length r.Experiments.Fig6.rows >= 5);
  Alcotest.(check bool) "counted implementation" true (r.Experiments.Fig6.implementation > 1000);
  Alcotest.(check bool) "counted models" true (r.Experiments.Fig6.models > 100);
  Alcotest.(check bool) "counted validation" true (r.Experiments.Fig6.validation > 500);
  Alcotest.(check bool) "total adds up" true
    (r.Experiments.Fig6.total
    >= r.Experiments.Fig6.implementation + r.Experiments.Fig6.models
       + r.Experiments.Fig6.validation)

let test_fig5_single_rows () =
  (* Exercise one row of each method kind at a small budget. *)
  let budget =
    {
      Experiments.Fig5.quick_budget with
      Experiments.Fig5.pbt_sequences = 300;
      smc_schedules = 20_000;
    }
  in
  ignore budget;
  let r = Lfm.Detect.detect ~max_sequences:300 ~minimize:false ~seed:5 Faults.F4_disk_return_loses_shards in
  Alcotest.(check bool) "pbt row detects" true r.Lfm.Detect.found;
  let o = Conc.Conc_detect.detect (Smc.Dfs { max_schedules = 20_000 }) Faults.F12_buffer_pool_deadlock in
  Alcotest.(check bool) "smc row detects" true (o.Smc.violation <> None)

(* The Fig. 5 table at the quick budget is a function of the seeded
   schedules the validation stack explores, down to the write-back order of
   the IO scheduler: pinning every row makes any change to a schedule fail
   here. #10 stays out of reach at this budget. *)
let test_fig5_quick_rows_pinned () =
  let expected =
    [
      (1, true, "20 sequences (1200 ops)", "60 operations, including 0 crashes and 1163 B of data");
      (2, true, "2 sequences (120 ops)", "60 operations, including 0 crashes and 1709 B of data");
      (3, true, "6 sequences (360 ops)", "60 operations, including 5 crashes and 1323 B of data");
      (4, true, "1 sequences (60 ops)", "60 operations, including 0 crashes and 943 B of data");
      (5, true, "85 sequences (5100 ops)", "60 operations, including 0 crashes and 622 B of data");
      (6, true, "48 sequences (2880 ops)", "60 operations, including 9 crashes and 702 B of data");
      (7, true, "15 sequences (900 ops)", "60 operations, including 2 crashes and 1541 B of data");
      (8, true, "7 sequences (420 ops)", "60 operations, including 4 crashes and 1329 B of data");
      (9, true, "1 sequences (60 ops)", "60 operations, including 4 crashes and 1016 B of data");
      (10, false, "2000 sequences (160000 ops)", "-");
      ( 11, true, "12 schedules (202 steps)",
        "assertion failed: published locator points at unwritten slot after 10 steps (schedule [0;1;1;1;0;0;0;1;1;1])" );
      ( 12, true, "6 schedules (98 steps)",
        "deadlock: 3 threads blocked after 10 steps (schedule [0;1;1;0;0;0;1;1;1;0])" );
      ( 13, true, "12 schedules (205 steps)",
        "assertion failed: listing skipped a live shard after 12 steps (schedule [0;0;0;0;1;1;0;2;2;2;2;1])" );
      ( 14, true, "34 schedules (1205 steps)",
        "assertion failed: final read: got 10 after 40 steps (schedule [0;0;0;0;0;0;0;0;0;1;1;1;1;1;0;0;3;3;3;3;0;0;1;1;1;1;1;1;1;0;0;0;0;0;0;0;0;0;0;0])" );
      (15, true, "1 sequences (12 ops)", "-");
      ( 16, true, "5 schedules (105 steps)",
        "assertion failed: removed shard 3 still present after 21 steps (schedule [0;0;0;1;1;1;1;0;0;0;1;1;1;0;0;0;0;0;0;0;0])" );
    ]
  in
  let report = Experiments.Fig5.run Experiments.Fig5.quick_budget in
  let actual =
    List.map
      (fun (row : Experiments.Fig5.row) ->
        ( Faults.number row.Experiments.Fig5.fault,
          (row.Experiments.Fig5.detected, row.Experiments.Fig5.effort,
           row.Experiments.Fig5.counterexample) ))
      report.Experiments.Fig5.rows
  in
  Alcotest.(check (list (pair int (triple bool string string))))
    "rows"
    (List.map (fun (n, d, e, c) -> (n, (d, e, c))) expected)
    actual

(* The hunt-driven experiments below pin their exact results at small
   budgets: which seed each hunt stops at decides every count and median,
   so a hunt that stops at a different seed fails here. *)
let test_payg () =
  let r =
    Experiments.Payg.run ~faults:[ Faults.F1_reclaim_off_by_one ] ~trials:3 ~max_sequences:200
      ~budgets:[ 10; 200 ] ()
  in
  match r.Experiments.Payg.curves with
  | [ c ] ->
    Alcotest.(check int) "trials" 3 c.Experiments.Payg.trials;
    Alcotest.(check (list int)) "sequences-to-detection" [ 16; 18; 34 ] c.Experiments.Payg.hits;
    Alcotest.(check (list (float 0.0))) "probabilities" [ 0.0; 1.0 ]
      c.Experiments.Payg.probability
  | _ -> Alcotest.fail "expected one curve"

let test_crash_modes () =
  let r =
    Experiments.Crash_modes.run
      ~faults:[ Faults.F3_shutdown_skips_metadata; Faults.F6_superblock_ownership_dep ]
      ~max_sequences:300 ~throughput_sequences:30 ()
  in
  Alcotest.(check (list (triple int bool int)))
    "detections (coarse, block-sampled, block-exhaustive per fault)"
    [ (3, true, 2); (3, true, 2); (3, true, 2); (6, true, 44); (6, true, 4); (6, true, 4) ]
    (List.map
       (fun (d : Experiments.Crash_modes.detection) ->
         ( Faults.number d.Experiments.Crash_modes.fault,
           d.Experiments.Crash_modes.detected,
           d.Experiments.Crash_modes.sequences ))
       r.Experiments.Crash_modes.detections);
  Alcotest.(check bool) "throughput measured" true
    (List.for_all (fun (_, t) -> t > 0.0) r.Experiments.Crash_modes.throughput);
  Alcotest.(check bool) "exhaustive states counted" true
    (r.Experiments.Crash_modes.exhaustive_states > 0)

let test_smc_tradeoff () =
  let r = Experiments.Smc_tradeoff.run ~trials:1 ~schedule_budget:30_000 () in
  Alcotest.(check bool) "has results" true (List.length r.Experiments.Smc_tradeoff.results >= 3);
  List.iter
    (fun (v : Experiments.Smc_tradeoff.verification) ->
      Alcotest.(check bool) "verification ran" true (v.Experiments.Smc_tradeoff.schedules > 0))
    r.Experiments.Smc_tradeoff.verifications

let test_blindspot () =
  let r = Experiments.Blindspot.run ~max_sequences:150 () in
  match r.Experiments.Blindspot.arms with
  | [ oversized; right_sized ] ->
    let row (a : Experiments.Blindspot.arm) =
      ( a.Experiments.Blindspot.detected,
        (a.Experiments.Blindspot.sequences, a.Experiments.Blindspot.cache_hits),
        (a.Experiments.Blindspot.cache_misses, a.Experiments.Blindspot.blind_spots) )
    in
    let t = Alcotest.(triple bool (pair int int) (pair int (list string))) in
    Alcotest.check t "oversized cache hides the bug and coverage flags it"
      (false, (150, 10289), (0, [ "cache.miss" ]))
      (row oversized);
    Alcotest.check t "right-sized cache finds it at once" (true, (1, 31), (3, [])) (row right_sized)
  | _ -> Alcotest.fail "expected two arms"

let test_minimize_stats () =
  let r =
    Experiments.Minimize_stats.run
      ~faults:[ Faults.F4_disk_return_loses_shards ]
      ~samples_per_fault:1 ()
  in
  match r.Experiments.Minimize_stats.samples with
  | [ s ] ->
    Alcotest.(check bool) "reduced" true
      (s.Experiments.Minimize_stats.minimized.Lfm.Op.ops
      <= s.Experiments.Minimize_stats.original.Lfm.Op.ops)
  | _ -> Alcotest.fail "expected one sample"

let test_component_level () =
  (* Both rows hunt at one and at two domains: the component row through
     the chunk harness, the end-to-end row through Detect.detect. *)
  let rows domains =
    let r = Experiments.Component_level.run ~domains ~trials:2 ~max_sequences:1_000 () in
    List.map
      (fun (row : Experiments.Component_level.row) ->
        ( Printf.sprintf "#%d %s" (Faults.number row.Experiments.Component_level.fault)
            row.Experiments.Component_level.level,
          (row.Experiments.Component_level.detected, row.Experiments.Component_level.trials),
          row.Experiments.Component_level.median_sequences ))
      r.Experiments.Component_level.rows
  in
  let expected =
    [
      ("#1 component", (2, 2), Some 25);
      ("#1 end-to-end", (2, 2), Some 54);
      ("#5 component", (2, 2), Some 184);
      ("#5 end-to-end", (2, 2), Some 75);
    ]
  in
  let t = Alcotest.(list (triple string (pair int int) (option int))) in
  Alcotest.check t "rows" expected (rows 1);
  Alcotest.check t "rows at 2 domains" expected (rows 2)

let test_bias_ablation () =
  let r = Experiments.Bias_ablation.run ~max_sequences:300 ~trials:2 () in
  Alcotest.(check (list (triple int (pair int int) (option int))))
    "arms (page-size ON/OFF, uuid ON/OFF)"
    [ (1, (2, 2), Some 105); (1, (2, 2), Some 53); (10, (0, 2), None); (10, (0, 2), None) ]
    (List.map
       (fun (a : Experiments.Bias_ablation.arm) ->
         ( Faults.number a.Experiments.Bias_ablation.fault,
           (a.Experiments.Bias_ablation.detected, a.Experiments.Bias_ablation.trials),
           a.Experiments.Bias_ablation.median_sequences ))
       r.Experiments.Bias_ablation.arms)

let test_repair_traffic () =
  let r = Experiments.Repair_traffic.run ~shards:20 ~shard_bytes:1024 () in
  Alcotest.(check int) "crash needs no repair" 0
    r.Experiments.Repair_traffic.crash.Experiments.Repair_traffic.bytes_moved;
  Alcotest.(check bool) "loss re-replicates" true
    (r.Experiments.Repair_traffic.loss.Experiments.Repair_traffic.bytes_moved > 0)

(* The chaos run's exit verdict: a one-campaign replay of a reproducer
   passes exactly when it is clean, while a full window still fails on a
   blind spot or toothless teeth. *)
let test_chaos_verdict () =
  let passes ~campaigns ~clean ~blind_spots ~teeth =
    Experiments.Chaos.passes ~campaigns ~clean ~blind_spots ~teeth
  in
  let window = Experiments.Chaos.teeth_window in
  Alcotest.(check bool) "clean replay with a blind spot" true
    (passes ~campaigns:1 ~clean:1 ~blind_spots:[ "fleet.read_repair" ] ~teeth:1);
  Alcotest.(check bool) "clean replay without teeth" true
    (passes ~campaigns:1 ~clean:1 ~blind_spots:[] ~teeth:0);
  Alcotest.(check bool) "violating replay" false
    (passes ~campaigns:1 ~clean:0 ~blind_spots:[] ~teeth:1);
  Alcotest.(check bool) "clean full window" true
    (passes ~campaigns:window ~clean:window ~blind_spots:[] ~teeth:window);
  Alcotest.(check bool) "blind spot in a full window" false
    (passes ~campaigns:window ~clean:window ~blind_spots:[ "fleet.read_repair" ] ~teeth:window);
  Alcotest.(check bool) "toothless full window" false
    (passes ~campaigns:(10 * window) ~clean:(10 * window) ~blind_spots:[] ~teeth:0);
  Alcotest.(check bool) "violation in a full window" false
    (passes ~campaigns:window ~clean:(window - 1) ~blind_spots:[] ~teeth:window)

(* The census tallies violating campaigns by class; a scan during the ops
   outranks the final phase, and a read during the ops is a third class. *)
let test_chaos_census_class () =
  let v at what = { Experiments.Chaos.at; what } in
  let cls = Experiments.Chaos.census_class in
  let name = function `Scan -> "scan" | `Repair -> "repair" | `Other -> "other" in
  let check label expected vs = Alcotest.(check string) label (name expected) (name (cls vs)) in
  check "scan" `Scan [ v 7 "scan k1 = none, admissible: committed v"; v (-1) "dirty set" ];
  check "repair" `Repair [ v (-1) "under-replicated after repair"; v (-1) "dirty set" ];
  check "read during the ops" `Other [ v 3 "read k2 = none, admissible: committed v"; v (-1) "x" ]

let () =
  Faults.disable_all ();
  Alcotest.run "experiments"
    [
      ( "smoke",
        [
          Alcotest.test_case "fig6 loc" `Quick test_fig6;
          Alcotest.test_case "fig5 rows" `Quick test_fig5_single_rows;
          Alcotest.test_case "fig5 quick rows pinned" `Quick test_fig5_quick_rows_pinned;
          Alcotest.test_case "payg" `Quick test_payg;
          Alcotest.test_case "crash modes" `Quick test_crash_modes;
          Alcotest.test_case "smc tradeoff" `Quick test_smc_tradeoff;
          Alcotest.test_case "minimize stats" `Quick test_minimize_stats;
          Alcotest.test_case "blindspot" `Quick test_blindspot;
          Alcotest.test_case "component level" `Quick test_component_level;
          Alcotest.test_case "bias ablation" `Quick test_bias_ablation;
          Alcotest.test_case "repair traffic" `Quick test_repair_traffic;
          Alcotest.test_case "chaos verdict" `Quick test_chaos_verdict;
          Alcotest.test_case "chaos census classes" `Quick test_chaos_census_class;
        ] );
    ]
