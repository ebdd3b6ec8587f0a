(* Determinism under parallelism: every Par entry point, and everything
   threaded through it (Harness.run_par, Detect, Chaos), must return
   byte-identical results for any domain count. These tests run 4 domains
   on whatever hardware CI has — oversubscription changes only wall clock,
   never results. *)

let domain_counts = [ 2; 4 ]

(* {2 Par primitives} *)

let test_sweep_matches_sequential () =
  (* An intentionally non-commutative accumulator: ordered list of indices.
     Any wrong merge order or lost/duplicated index shows up directly. *)
  let run domains =
    List.rev
      (Par.sweep ~domains ~start:3 ~count:501
         ~init:(fun () -> [])
         ~step:(fun acc i -> i :: acc)
         ~merge:(fun lo hi -> hi @ lo)
         ())
  in
  let expected = run 1 in
  Alcotest.(check (list int)) "covers the range once, in order" (List.init 501 (fun i -> i + 3)) expected;
  List.iter
    (fun d -> Alcotest.(check (list int)) (Printf.sprintf "%d domains" d) expected (run d))
    domain_counts

let test_sweep_empty_and_bounds () =
  Alcotest.(check int) "count 0 returns init" 42
    (Par.sweep ~domains:4 ~start:0 ~count:0
       ~init:(fun () -> 42)
       ~step:(fun acc _ -> acc + 1)
       ~merge:( + ) ());
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Par: negative count") (fun () ->
      ignore
        (Par.sweep ~domains:2 ~start:0 ~count:(-1)
           ~init:(fun () -> 0)
           ~step:(fun acc _ -> acc)
           ~merge:( + ) ()))

let test_sweep_exception_propagates () =
  List.iter
    (fun domains ->
      Alcotest.check_raises "task exception re-raised" (Failure "boom") (fun () ->
        ignore
          (Par.sweep ~domains ~start:0 ~count:100
             ~init:(fun () -> 0)
             ~step:(fun acc i -> if i = 57 then failwith "boom" else acc + i)
             ~merge:( + ) ())))
    (1 :: domain_counts)

let test_first_matches_sequential () =
  (* Several hit positions, including none and the very first index; every
     index at or above [hit] hits, so speculative runs above the lowest hit
     also report hits that must be dropped. *)
  List.iter
    (fun hit ->
      let task i = if i >= hit then Some (i * i) else None in
      let expected = if hit < 310 then Some (hit, hit * hit) else None in
      List.iter
        (fun d ->
          Alcotest.(check (option (pair int int)))
            (Printf.sprintf "hit %d, %d domains" hit d)
            expected
            (Par.first ~domains:d ~start:10 ~count:300 task))
        (1 :: domain_counts))
    [ 10; 11; 137; 309; 100_000 (* never *) ];
  Alcotest.(check (option (pair int int))) "count 0" None
    (Par.first ~domains:4 ~start:0 ~count:0 (fun i -> Some i))

let test_first_lowest_hit_wins () =
  (* Two hits, 90 and 110. At 2 domains the upper worker starts at 100 and
     reaches 110 within a few tasks; the task at 90 then waits until 110
     has reported (or a second has passed), so the upper hit is always the
     first found in wall-clock time. The answer must still be 90. *)
  List.iter
    (fun d ->
      let upper_done = Atomic.make false in
      let task i =
        if i = 110 then begin
          Atomic.set upper_done true;
          Some i
        end
        else if i = 90 then begin
          let t0 = Unix.gettimeofday () in
          while d > 1 && (not (Atomic.get upper_done)) && Unix.gettimeofday () -. t0 < 1.0 do
            Domain.cpu_relax ()
          done;
          Some i
        end
        else None
      in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "lowest hit, %d domains" d)
        (Some (90, 90))
        (Par.first ~domains:d ~start:0 ~count:200 task))
    (1 :: domain_counts)

let test_first_exception_propagates () =
  List.iter
    (fun domains ->
      Alcotest.check_raises "task exception re-raised" (Failure "boom") (fun () ->
        ignore
          (Par.first ~domains ~start:0 ~count:100 (fun i ->
               if i = 57 then failwith "boom" else None))))
    (1 :: domain_counts)

let test_first_cancels_overtaken_tasks () =
  (* Two domains over [0, 200): worker 0 owns [0, 100), worker 1 owns
     [100, 200). Task 100 hits at once, so worker 1 drops the rest of its
     range and steals the top of worker 0's, which is still in task 0.
     Task 0 waits until a stolen task has started: the hit at 100 is then
     known, and task 0, below it, must not see cancellation. Task 0 then
     hits, and the stolen task, now above the lowest hit, must see it. *)
  let waited f =
    let t0 = Unix.gettimeofday () in
    while (not (f ())) && Unix.gettimeofday () -. t0 < 2.0 do
      Domain.cpu_relax ()
    done;
    f ()
  in
  let stolen = Atomic.make false in
  let below = Atomic.make None and above = Atomic.make None in
  let task i =
    if i = 100 then Some i
    else if i = 0 then begin
      ignore (waited (fun () -> Atomic.get stolen));
      Atomic.set below (Some (Par.cancelled ()));
      Some i
    end
    else if i < 100 && Atomic.compare_and_set stolen false true then begin
      Atomic.set above (Some (waited Par.cancelled));
      None
    end
    else None
  in
  let hit = Par.first ~domains:2 ~start:0 ~count:200 task in
  Alcotest.(check (option (pair int int))) "lowest hit" (Some (0, 0)) hit;
  Alcotest.(check bool) "a task was stolen while task 0 ran" true (Atomic.get stolen);
  Alcotest.(check (option bool)) "task below the hit never cancelled" (Some false)
    (Atomic.get below);
  Alcotest.(check (option bool)) "task above the hit cancelled" (Some true) (Atomic.get above);
  Alcotest.(check bool) "caller not cancelled afterwards" false (Par.cancelled ());
  let seen = ref false in
  ignore
    (Par.first ~start:0 ~count:20 (fun i ->
         seen := !seen || Par.cancelled ();
         if i = 10 then Some i else None));
  Alcotest.(check bool) "sequential first never cancels" false !seen

(* {2 Harness.run_par} *)

let config = Lfm.Harness.default_config
let bias = Lfm.Gen.default_bias

let check_sweep_equal msg (a : Lfm.Harness.sweep) (b : Lfm.Harness.sweep) =
  Alcotest.(check int) (msg ^ ": total_ops") a.Lfm.Harness.total_ops b.Lfm.Harness.total_ops;
  Alcotest.(check int) (msg ^ ": failures") a.Lfm.Harness.failures b.Lfm.Harness.failures;
  match a.Lfm.Harness.first_failure, b.Lfm.Harness.first_failure with
  | None, None -> ()
  | Some (sa, opsa, fa), Some (sb, opsb, fb) ->
    Alcotest.(check int) (msg ^ ": failing seed") sa sb;
    Alcotest.(check string)
      (msg ^ ": failing ops")
      (String.concat ";" (List.map (Format.asprintf "%a" Lfm.Op.pp) opsa))
      (String.concat ";" (List.map (Format.asprintf "%a" Lfm.Op.pp) opsb));
    Alcotest.(check string)
      (msg ^ ": failure")
      (Format.asprintf "%a" Lfm.Harness.pp_failure fa)
      (Format.asprintf "%a" Lfm.Harness.pp_failure fb)
  | _ -> Alcotest.fail (msg ^ ": first_failure presence differs")

let test_run_par_clean_sweep () =
  Faults.disable_all ();
  let run domains =
    Lfm.Harness.run_par ~domains config ~profile:Lfm.Gen.Full ~bias ~length:30 ~seed:0
      ~count:60
  in
  let seq = run 1 in
  Alcotest.(check int) "every seed swept" (60 * 30) seq.Lfm.Harness.total_ops;
  Alcotest.(check int) "clean" 0 seq.Lfm.Harness.failures;
  List.iter
    (fun d -> check_sweep_equal (Printf.sprintf "%d domains" d) seq (run d))
    domain_counts

let test_run_par_finds_same_counterexample () =
  (* With #4 enabled, the hunt must stop at the same lowest failing seed —
     and the minimized counterexample derived from it must be identical —
     for every domain count. Seed/budget as in test_experiments, where #4
     is known to surface. *)
  let run domains =
    Lfm.Detect.hunt ~domains Faults.F4_disk_return_loses_shards ~seed:5 ~count:300 (fun s ->
        match
          Lfm.Harness.run_seed config ~profile:Lfm.Gen.Crash_free ~bias ~length:60 ~seed:s
        with
        | ops, Lfm.Harness.Failed f -> Some (s, ops, f)
        | _, Lfm.Harness.Passed -> None)
  in
  let render = function
    | None -> "none"
    | Some (seeds, (s, ops, f)) ->
      Format.asprintf "%d seeds, seed %d: %s; %a" seeds s
        (String.concat ";" (List.map (Format.asprintf "%a" Lfm.Op.pp) ops))
        Lfm.Harness.pp_failure f
  in
  let minimized = function
    | None -> []
    | Some (_, (_, ops, _)) ->
      Faults.with_fault Faults.F4_disk_return_loses_shards (fun () ->
          let still_fails ops =
            match Lfm.Harness.run config ops with
            | Lfm.Harness.Failed _ -> true
            | Lfm.Harness.Passed -> false
          in
          List.map (Format.asprintf "%a" Lfm.Op.pp) (fst (Lfm.Minimize.minimize ~still_fails ops)))
  in
  let seq = run 1 in
  Alcotest.(check bool) "found" true (seq <> None);
  Alcotest.(check bool) "fault off afterwards" false
    (Faults.enabled Faults.F4_disk_return_loses_shards);
  let seq_min = minimized seq in
  Alcotest.(check bool) "minimized nonempty" true (seq_min <> []);
  List.iter
    (fun d ->
      let par = run d in
      Alcotest.(check string) (Printf.sprintf "same hit, %d domains" d) (render seq) (render par);
      Alcotest.(check (list string))
        (Printf.sprintf "minimized identical, %d domains" d)
        seq_min (minimized par))
    domain_counts

let render_obs obs = Format.asprintf "%a" Obs.pp_snapshot obs

let test_run_par_obs_merge () =
  Faults.disable_all ();
  let run domains =
    let obs = Obs.create ~scope:"sweep" () in
    let sw =
      Lfm.Harness.run_par ~obs ~domains config ~profile:Lfm.Gen.Full ~bias ~length:30
        ~seed:100 ~count:40
    in
    (sw, render_obs obs)
  in
  let seq, seq_obs = run 1 in
  Alcotest.(check bool) "metrics aggregated" true (String.length seq_obs > 0);
  List.iter
    (fun d ->
      let par, par_obs = run d in
      check_sweep_equal (Printf.sprintf "%d domains" d) seq par;
      Alcotest.(check string)
        (Printf.sprintf "merged Obs snapshot identical, %d domains" d)
        seq_obs par_obs)
    domain_counts

(* {2 Detect and Chaos} *)

let test_detect_domains_identical () =
  let run domains =
    Lfm.Detect.detect ~domains ~max_sequences:300 ~minimize:true ~seed:5
      Faults.F4_disk_return_loses_shards
  in
  let seq = run 1 in
  Alcotest.(check bool) "detects" true seq.Lfm.Detect.found;
  List.iter
    (fun d ->
      let par = run d in
      Alcotest.(check bool) "found" seq.Lfm.Detect.found par.Lfm.Detect.found;
      Alcotest.(check int) "sequences" seq.Lfm.Detect.sequences par.Lfm.Detect.sequences;
      Alcotest.(check int) "total_ops" seq.Lfm.Detect.total_ops par.Lfm.Detect.total_ops;
      Alcotest.(check (option (list string)))
        "minimized ops identical"
        (Option.map (List.map (Format.asprintf "%a" Lfm.Op.pp)) seq.Lfm.Detect.minimized_ops)
        (Option.map (List.map (Format.asprintf "%a" Lfm.Op.pp)) par.Lfm.Detect.minimized_ops))
    domain_counts

let test_chaos_domains_identical () =
  let render (s : Experiments.Chaos.summary) =
    Printf.sprintf "%d/%d ops %d faults %d retries %d failovers %d rr %d bo %d qa %d pw %d failed %d"
      s.Experiments.Chaos.clean s.Experiments.Chaos.campaigns s.Experiments.Chaos.total_ops
      s.Experiments.Chaos.total_faults s.Experiments.Chaos.total_retries
      s.Experiments.Chaos.total_failovers s.Experiments.Chaos.total_read_repairs
      s.Experiments.Chaos.total_breaker_opens s.Experiments.Chaos.total_quorum_acks
      s.Experiments.Chaos.total_partial_writes
      (List.length s.Experiments.Chaos.failed)
  in
  let seq = render (Experiments.Chaos.run ~domains:1 ~campaigns:8 ~length:30 ~seed:0 ()) in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "summary identical, %d domains" d)
        seq
        (render (Experiments.Chaos.run ~domains:d ~campaigns:8 ~length:30 ~seed:0 ())))
    domain_counts;
  let teeth_seq = Experiments.Chaos.check_teeth ~domains:1 ~campaigns:4 ~length:30 ~seed:0 () in
  Alcotest.(check bool) "teeth" true (teeth_seq > 0);
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "teeth identical, %d domains" d)
        teeth_seq
        (Experiments.Chaos.check_teeth ~domains:d ~campaigns:4 ~length:30 ~seed:0 ()))
    domain_counts

let () =
  Alcotest.run "par"
    [
      ( "primitives",
        [
          Alcotest.test_case "sweep = sequential fold" `Quick test_sweep_matches_sequential;
          Alcotest.test_case "sweep bounds" `Quick test_sweep_empty_and_bounds;
          Alcotest.test_case "sweep exception" `Quick test_sweep_exception_propagates;
          Alcotest.test_case "search prefix" `Quick test_first_matches_sequential;
          Alcotest.test_case "search lowest hit" `Quick test_first_lowest_hit_wins;
          Alcotest.test_case "search exception" `Quick test_first_exception_propagates;
          Alcotest.test_case "first cancels overtaken tasks" `Quick
            test_first_cancels_overtaken_tasks;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean sweep" `Quick test_run_par_clean_sweep;
          Alcotest.test_case "same counterexample" `Quick test_run_par_finds_same_counterexample;
          Alcotest.test_case "obs merge" `Quick test_run_par_obs_merge;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "detect identical" `Quick test_detect_domains_identical;
          Alcotest.test_case "chaos identical" `Quick test_chaos_domains_identical;
        ] );
    ]
