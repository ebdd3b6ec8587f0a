(* The pre-deployment validation run (paper section 4.2: "we routinely run
   tens of millions of random test sequences before every ShardStore
   deployment"): conformance checking across every profile, scaled by a
   sequence budget. Exit status 1 if any check fails. *)

open Cmdliner

let expected_coverage =
  [
    "cache.hit"; "cache.miss"; "cache.eviction"; "chunk.get.stale_locator";
    "index.get.memtable"; "index.get.run"; "index.run_written"; "index.compact";
    "reclaim.scan.valid_frame"; "reclaim.scan.invalid_frame"; "reclaim.evacuated";
    "reclaim.dropped"; "crash.torn_append"; "superblock.record"; "superblock.checkpoint";
    "superblock.free_claim_withheld"; "store.put.gc_fallback";
  ]

(* Replay one representative mixed sequence and report the unified metrics
   registry it produced — the per-run view that complements the global
   coverage table below. *)
let metrics_summary config ~bias ~length ~seed metrics_out =
  let rng = Util.Rng.create (Int64.of_int seed) in
  let ops =
    Lfm.Gen.sequence ~rng ~bias ~profile:Lfm.Gen.Full
      ~page_size:config.Lfm.Harness.store_config.Lfm.Harness.S.disk.Disk.page_size
      ~extent_count:config.Lfm.Harness.store_config.Lfm.Harness.S.disk.Disk.extent_count
      ~length
  in
  let store = Lfm.Harness.replay config ops in
  let obs = Lfm.Harness.S.obs store in
  Format.printf "@.metrics (one %d-op full-profile sequence):@.%a@." length Obs.pp_snapshot obs;
  match metrics_out with
  | None -> true
  | Some path -> (
    match open_out path with
    | oc ->
      output_string oc (Obs.to_jsonl obs);
      close_out oc;
      Printf.printf "metrics written to %s\n" path;
      true
    | exception Sys_error msg ->
      Printf.eprintf "validate: cannot write metrics: %s\n" msg;
      false)

(* [--sanitize]: run the dynamic-analysis detectors over known-clean
   workloads. Two sweeps: (1) the vector-clock race detector plus
   lock-order analysis over every Fig. 5 concurrency harness with its
   fault disabled — any Race violation or acquisition-graph cycle is a
   finding; (2) the page-lifecycle shadow over a put/flush/reclaim
   workload on a real stack, ending with a leaked-extent audit — any
   shadow report is a finding. Exit 1 on findings, so CI can gate on a
   sanitizer-clean tree. *)
let sanitize_run ~seed =
  Faults.disable_all ();
  let failures = ref 0 in
  let cfg = Sanitize.default in
  Printf.printf "sanitize: races + lock order over the clean Fig. 5 harnesses\n";
  List.iter
    (fun (name, fault) ->
      let o =
        Conc.Conc_detect.check_correct ~sanitize:cfg (Smc.Dfs { max_schedules = 20_000 }) fault
      in
      match (o.Smc.violation, o.Smc.lock_cycles) with
      | None, [] ->
        Printf.printf "  %-26s clean: %d schedules%s\n" name o.Smc.schedules_run
          (if o.Smc.exhausted then " (exhaustive)" else "")
      | _ ->
        incr failures;
        Format.printf "  %-26s %a@." name Smc.pp_outcome o)
    [
      ("#11 locator publication", Faults.F11_locator_race);
      ("#12 buffer pool", Faults.F12_buffer_pool_deadlock);
      ("#13 shard list/remove", Faults.F13_list_remove_race);
      ("#14 compaction/reclaim", Faults.F14_compaction_reclaim_race);
      ("#16 bulk create/remove", Faults.F16_bulk_create_remove_race);
    ];
  Printf.printf "sanitize: page-lifecycle shadow over put/flush/reclaim workloads\n";
  List.iter
    (fun seed ->
      let config = { Disk.extent_count = 8; pages_per_extent = 8; page_size = 32 } in
      let shadow =
        Sanitize.Page_shadow.create ~extent_count:config.Disk.extent_count
          ~pages_per_extent:config.Disk.pages_per_extent ~page_size:config.Disk.page_size ()
      in
      let disk = Disk.create ~shadow config in
      let sched = Io_sched.create ~seed:(Int64.of_int seed) disk in
      let cache = Cache.create sched in
      let sb = Superblock.create sched ~extents:(0, 1) ~reserved:[ 0; 1 ] in
      let rng = Util.Rng.create (Int64.of_int (seed + 1)) in
      let cs = Chunk.Chunk_store.create sched ~cache ~superblock:sb ~rng in
      let live : (string, Chunk.Locator.t) Hashtbl.t = Hashtbl.create 16 in
      let fail msg =
        incr failures;
        Printf.printf "  seed %-4d FAILED: %s\n" seed msg
      in
      let put key =
        match Chunk.Chunk_store.put cs ~owner:(Chunk.Chunk_format.Shard key) ~payload:key with
        | Ok (loc, _) -> Hashtbl.replace live key loc
        | Error e -> fail (Format.asprintf "put %s: %a" key Chunk.Chunk_store.pp_error e)
      in
      for i = 0 to 9 do
        put (Printf.sprintf "k%d" i)
      done;
      (match Superblock.flush sb with Ok _ -> () | Error _ -> fail "superblock flush");
      (match Io_sched.flush sched with Ok () -> () | Error _ -> fail "flush");
      (* Reclaim every extent holding chunks, evacuating all of them. *)
      let extents =
        Util.Tbl.fold_sorted
          (fun _ l acc -> if List.mem l.Chunk.Locator.extent acc then acc else l.Chunk.Locator.extent :: acc)
          live []
      in
      List.iter
        (fun extent ->
          match
            Chunk.Chunk_store.reclaim cs ~extent ~index_basis:Dep.trivial
              ~classify:(fun _ _ -> `Live)
              ~relocate:(fun owner ~old_loc:_ ~new_loc ~new_dep ->
                (match owner with
                | Chunk.Chunk_format.Shard key -> Hashtbl.replace live key new_loc
                | _ -> ());
                new_dep)
          with
          | Ok _ -> ()
          | Error e -> fail (Format.asprintf "reclaim %d: %a" extent Chunk.Chunk_store.pp_error e))
        extents;
      (match Superblock.flush sb with Ok _ -> () | Error _ -> fail "superblock flush");
      (match Io_sched.flush sched with Ok () -> () | Error _ -> fail "flush");
      (* Every get must still resolve; the shadow checks every read. *)
      Util.Tbl.iter_sorted
        (fun key loc ->
          match Chunk.Chunk_store.get cs loc with
          | Ok c when c.Chunk.Chunk_format.payload = key -> ()
          | Ok _ -> fail (Printf.sprintf "get %s: wrong payload" key)
          | Error e -> fail (Format.asprintf "get %s: %a" key Chunk.Chunk_store.pp_error e))
        live;
      let in_use extent =
        Util.Tbl.fold_sorted (fun _ l acc -> acc || l.Chunk.Locator.extent = extent) live false
      in
      let leaks = Chunk.Chunk_store.close cs ~in_use in
      List.iter
        (fun (extent, pages) ->
          incr failures;
          Printf.printf "  seed %-4d LEAK: extent %d, %d pages\n" seed extent pages)
        leaks;
      let reports = Sanitize.Page_shadow.reports shadow in
      List.iter
        (fun r ->
          incr failures;
          Format.printf "  seed %-4d SHADOW: %a@." seed Sanitize.Page_shadow.pp_report r)
        reports;
      if leaks = [] && reports = [] then Printf.printf "  seed %-4d clean (shadow quiet)\n" seed)
    [ seed; seed + 1; seed + 2 ];
  if !failures = 0 then begin
    Printf.printf "sanitizers clean\n";
    0
  end
  else begin
    Printf.printf "sanitizers reported %d finding(s)\n" !failures;
    1
  end

(* [--chaos]: the E13 chaos campaign over the fleet's fault-tolerant
   request plane. Three gates, any of which fails the run: (1) every
   campaign must be clean — no acknowledged write may be lost under
   randomized faults, crashes and node losses; (2) the request-plane
   coverage counters must all have fired (a silent code path is a blind
   spot); (3) the checker must still have teeth — with fault #18 (quorum
   ack without durable flush) enabled it must catch violations. Gates 2
   and 3 apply from [Chaos.teeth_window] campaigns up, so the one-campaign
   replay of a reproducer exits 0 exactly when the campaign is clean. *)
let chaos_expected_coverage =
  [
    "fleet.retry"; "fleet.breaker_open"; "fleet.quorum_ack"; "fleet.read_repair";
    "fleet.partial_write";
  ]

let chaos_run ~domains ~campaigns ~length ~seed =
  Faults.disable_all ();
  Obs.Coverage.reset ();
  let summary = Experiments.Chaos.run ~domains ~campaigns ~length ~seed () in
  Experiments.Chaos.print summary;
  let blind = Obs.Coverage.blind_spots ~expected:chaos_expected_coverage () in
  (match blind with
  | [] ->
    Printf.printf "\ncoverage: all %d request-plane paths exercised\n"
      (List.length chaos_expected_coverage)
  | spots -> Printf.printf "\ncoverage BLIND SPOTS: %s\n" (String.concat ", " spots));
  let window = min campaigns Experiments.Chaos.teeth_window in
  let teeth = Experiments.Chaos.check_teeth ~domains ~campaigns:window ~length ~seed () in
  Printf.printf "teeth (#18 quorum ack without durable flush): %d/%d campaigns caught it\n"
    teeth window;
  if campaigns < Experiments.Chaos.teeth_window then
    Printf.printf
      "coverage and teeth gate runs of %d or more campaigns; this one gates on violations\n"
      Experiments.Chaos.teeth_window;
  if
    Experiments.Chaos.passes ~campaigns ~clean:summary.Experiments.Chaos.clean ~blind_spots:blind
      ~teeth
  then begin
    Printf.printf "chaos campaign clean\n";
    0
  end
  else 1

(* [--shared]: the racing-domain conformance gate for the shared-state
   store. Four checks, each printing its race-checked access counts as
   coverage evidence: (1) the rwlock protocol model explored exhaustively
   under Smc (mutual exclusion, writer preference, no lost wakeups);
   (2) the sharded hot-path model (per-shard staging, stack lock, cache
   lifecycle) under the FastTrack race monitor and lock-order analysis —
   zero findings required; (3) the real Atomic rwlock hammered by racing
   domains, with its transition trace audited against the protocol spec
   and the protected-register history checked linearizable; (4) N domains
   driving one shared store with a wire-trace recorder attached, the
   recorded history audited offline against the per-key model; then the
   maintenance-racing gate below. *)
(* [--lint-graph FILE]: dump the named lock-class edges the hot-path model
   observed, one "held acquired" pair per line. lib/lint cross-checks this
   against its static acquisition graph: every dynamic edge must appear
   statically, or the extractor is blind to a real code path. *)
let export_lint_graph path reports =
  let edges =
    List.concat_map
      (fun r ->
        let o = r.Conc.Conc_shared.outcome in
        List.filter_map
          (fun (a, b) ->
            match (List.assoc_opt a o.Smc.lock_names, List.assoc_opt b o.Smc.lock_names) with
            | Some na, Some nb -> Some (na, nb)
            | _ -> None)
          o.Smc.lock_edges)
      reports
    |> List.sort_uniq compare
  in
  let oc = open_out path in
  output_string oc "# dynamic lock-order class edges (validate --shared): held acquired\n";
  List.iter (fun (a, b) -> Printf.fprintf oc "%s %s\n" a b) edges;
  close_out oc;
  Printf.printf "  lint-graph: %d class edge(s) -> %s\n" (List.length edges) path

(* The maintenance-racing gate, appended to --shared and also runnable
   on its own as --maint (the CI maint-smoke job): the recorded racing
   store run with a dedicated maintenance domain racing the foreground
   (narrowed shard flushes, compactions and reclaims, each flush leaving
   a marker in the trace) must audit Valid offline, with zero
   maintenance errors and at least one maintenance flush. The model-side
   half — the Conc_shared maintenance harnesses under FastTrack — rides
   in the hot-path model gate, which --maint re-runs for its lint-graph
   export. *)
let maint_gate ~gate ~n ~shared_ops ~seed =
  Printf.printf "shared: %d foreground domains + 1 maintenance domain (audited)\n" n;
  let r = Experiments.Shared_lin.run ~domains:n ~ops_per_domain:shared_ops ~seed ~maint:true () in
  Format.printf "  %a@." Experiments.Shared_lin.pp_report r;
  gate "maintenance-racing audit" (Experiments.Shared_lin.ok r)

(* The gates of a --shared or --maint run: [body gate] runs the checks,
   calling [gate name ok] on each, and a failing gate prints a FAILED
   line. Exit status 0 when every gate passed. *)
let gated label body =
  let failures = ref 0 in
  body (fun name ok ->
      if not ok then begin
        incr failures;
        Printf.printf "  %s: FAILED\n" name
      end);
  if !failures = 0 then begin
    Printf.printf "%s clean\n" label;
    0
  end
  else begin
    Printf.printf "%s: %d gate(s) failed\n" label !failures;
    1
  end

(* The hot-path model gate of both --shared and --maint: the Conc_shared
   harnesses (maintenance ones included) under FastTrack and lock-order
   analysis, with the dynamic lock-graph export when asked. *)
let hot_path_model ~gate ~lint_graph =
  let reports = Conc.Conc_shared.run () in
  List.iter (fun r -> Format.printf "  %a@." Conc.Conc_shared.pp_report r) reports;
  gate "hot-path model" (Conc.Conc_shared.ok reports);
  Option.iter (fun path -> export_lint_graph path reports) lint_graph

let shared_run ~domains ~shared_ops ~seed ~lint_graph =
  Faults.disable_all ();
  let n = if domains > 1 then domains else 4 in
  gated "shared-state conformance" (fun gate ->
      Printf.printf "shared: rwlock protocol model (Smc; two-thread harnesses exhaustive)\n";
      let model_reports = Conc.Rwlock.Check.model () in
      List.iter (fun r -> Format.printf "  %a@." Conc.Rwlock.Check.pp_model_report r) model_reports;
      gate "rwlock model" (Conc.Rwlock.Check.model_ok model_reports);
      Printf.printf "shared: sharded hot-path model (FastTrack races + lock order)\n";
      hot_path_model ~gate ~lint_graph;
      Printf.printf "shared: real rwlock on %d racing domains (trace audit + linearizability)\n" n;
      let impl_report = Conc.Rwlock.Check.impl ~domains:n ~seed () in
      Format.printf "  %a@." Conc.Rwlock.Check.pp_impl_report impl_report;
      gate "rwlock impl" (Conc.Rwlock.Check.impl_ok impl_report);
      Printf.printf "shared: %d domains x %d ops against one shared store (audited)\n" n shared_ops;
      let lin_report = Experiments.Shared_lin.run ~domains:n ~ops_per_domain:shared_ops ~seed () in
      Format.printf "  %a@." Experiments.Shared_lin.pp_report lin_report;
      gate "store linearizability" (Experiments.Shared_lin.ok lin_report);
      maint_gate ~gate ~n ~shared_ops ~seed)

(* [--maint]: the maintenance-plane subset of --shared, small enough for
   a dedicated CI job: the hot-path model plus the maintenance-racing
   gate. *)
let maint_run ~domains ~shared_ops ~seed ~lint_graph =
  Faults.disable_all ();
  let n = if domains > 1 then domains else 3 in
  gated "maintenance-plane conformance" (fun gate ->
      Printf.printf "maint: hot-path model with maintenance harnesses (FastTrack + lock order)\n";
      hot_path_model ~gate ~lint_graph;
      maint_gate ~gate ~n ~shared_ops ~seed)

(* [--trace-audit]: E16 — capture wire traces from non-deterministic runs
   (chaos campaigns with faults armed, racing Store.Shared domains, the
   Rpc.Node request plane) and validate each recorded history offline
   against the per-key linearizable model, plus the teeth suite (forged
   histories and the armed-#18 scenario, all of which must be rejected). *)
let trace_audit_run ~domains ~campaigns ~length ~seed ~shared_ops =
  let summary =
    Experiments.Trace_audit.run ~domains ~campaigns ~length ~seed ~shared_ops ()
  in
  Experiments.Trace_audit.print summary;
  if Experiments.Trace_audit.ok summary then 0 else 1

let run_conformance sequences length seed metrics_out batch_weight scan_weight domains =
  Faults.disable_all ();
  Obs.Coverage.reset ();
  let config = Lfm.Harness.default_config in
  (* batch_weight / scan_weight = 0 (the defaults) keep the seed-for-seed
     op streams of a plain sweep; positive weights mix PutBatch/DeleteBatch
     and Scan into every profile's alphabet so the sweep also exercises the
     group-commit and range-scan paths. *)
  let bias = { Lfm.Gen.default_bias with Lfm.Gen.batch_weight; scan_weight } in
  let total_failures = ref 0 in
  List.iter
    (fun profile ->
      let t0 = Util.Wallclock.now_s () in
      let admitted () = Obs.Coverage.count "harness.no_space_admitted" in
      let admitted_before = admitted () in
      (* Sharded across domains, merged in seed order: the failure count and
         the (lowest-seed) first failure are identical for any --domains. *)
      let sw = Lfm.Harness.run_par ~domains config ~profile ~bias ~length ~seed ~count:sequences in
      let failures = sw.Lfm.Harness.failures in
      let dt = Util.Wallclock.now_s () -. t0 in
      Printf.printf "%-12s %6d sequences, %3d failures (%.0f seqs/s)\n"
        (Lfm.Gen.profile_name profile)
        sequences failures
        (float_of_int sequences /. dt);
      (* The No_space rejections the section 4.4 relaxation admitted. *)
      Printf.printf "  %d No_space rejections admitted\n" (admitted () - admitted_before);
      (match sw.Lfm.Harness.first_failure with
      | Some (s, ops, f) ->
        Format.printf "  first failure (seed %d): %a@." s Lfm.Harness.pp_failure f;
        let still_fails ops =
          match Lfm.Harness.run config ops with Lfm.Harness.Failed _ -> true | _ -> false
        in
        let minimized, stats = Lfm.Minimize.minimize ~still_fails ops in
        Format.printf "  minimized: %a@." Lfm.Minimize.pp_stats stats;
        List.iteri (fun i op -> Format.printf "    %2d: %a@." i Lfm.Op.pp op) minimized
      | None -> ());
      total_failures := !total_failures + failures)
    [ Lfm.Gen.Crash_free; Lfm.Gen.Crashing; Lfm.Gen.Failing; Lfm.Gen.Full ];
  (* Coverage monitoring (section 4.2): make blind spots visible so new
     functionality that the harness cannot reach is noticed. *)
  Printf.printf "\ncoverage:\n";
  List.iter
    (fun (name, n) -> Printf.printf "  %-40s %d\n" name n)
    (Obs.Coverage.snapshot ());
  (* Scan coverage is only expected when scans are actually generated. *)
  let expected_coverage =
    if scan_weight > 0 then expected_coverage @ [ "index.scan" ] else expected_coverage
  in
  (match Obs.Coverage.blind_spots ~expected:expected_coverage () with
  | [] -> Printf.printf "  no blind spots among %d expected paths\n" (List.length expected_coverage)
  | spots -> Printf.printf "  BLIND SPOTS: %s\n" (String.concat ", " spots));
  let metrics_ok = metrics_summary config ~bias ~length ~seed metrics_out in
  if !total_failures = 0 && metrics_ok then begin
    Printf.printf "all profiles clean\n";
    0
  end
  else 1

let run sequences length seed metrics_out sanitize batch_weight scan_weight chaos campaigns
    chaos_length domains shared shared_ops lint_graph trace_audit maint =
  if trace_audit then
    trace_audit_run ~domains ~campaigns ~length:chaos_length ~seed ~shared_ops
  else if shared then shared_run ~domains ~shared_ops ~seed ~lint_graph
  else if maint then maint_run ~domains ~shared_ops ~seed ~lint_graph
  else if chaos then chaos_run ~domains ~campaigns ~length:chaos_length ~seed
  else if sanitize then sanitize_run ~seed
  else run_conformance sequences length seed metrics_out batch_weight scan_weight domains

let sequences =
  Arg.(value & opt int 2000 & info [ "sequences"; "n" ] ~doc:"Sequences per profile.")

let length = Arg.(value & opt int 60 & info [ "length" ] ~doc:"Operations per sequence.")
let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base random seed.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Export the metrics summary as JSONL to $(docv).")

let sanitize =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run the sanitizer suite instead of the conformance sweep: the vector-clock race \
           detector and lock-order analysis over the known-clean concurrency harnesses, and \
           the page-lifecycle shadow (plus a leaked-extent audit) over put/flush/reclaim \
           workloads. Exit 1 on any finding.")

let batch_weight =
  Arg.(
    value & opt int 0
    & info [ "batch-weight" ]
        ~doc:
          "Relative weight of PutBatch/DeleteBatch ops in the generated alphabet. 0 (default) \
           generates the classic scalar-only streams; a positive weight exercises the batched \
           request plane and group commit.")

let scan_weight =
  Arg.(
    value & opt int 0
    & info [ "scan-weight" ]
        ~doc:
          "Relative weight of Scan ops in the generated alphabet. 0 (default) generates the \
           classic streams; a positive weight drives range scans through \
           every profile (and adds index.scan to the expected coverage).")

let chaos =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Run the chaos campaign instead of the conformance sweep: seeded randomized \
           workloads against a replicated fleet under disk faults, node crashes and node \
           losses, checking that every acknowledged write stays readable and repair \
           converges. Also asserts the request-plane coverage counters fired and that the \
           checker catches fault #18 (quorum ack without durable flush). Exit 1 on any \
           violation.")

let campaigns =
  Arg.(value & opt int 200 & info [ "campaigns" ] ~doc:"Chaos campaigns to run.")

let chaos_length =
  Arg.(value & opt int 40 & info [ "chaos-length" ] ~doc:"Operations per chaos campaign.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~doc:
          "Shard the conformance sweep and chaos campaigns across $(docv) OCaml domains \
           (lib/par). Results are merged in seed order and are byte-identical to --domains 1 \
           (only the seqs/s and wall-clock figures change). Does not affect --sanitize, whose \
           SMC harnesses are single-domain by design. With --shared this is the number of \
           racing domains (default 4 when left at 1 — a shared-state gate needs contention)."
        ~docv:"N")

let shared =
  Arg.(
    value & flag
    & info [ "shared" ]
        ~doc:
          "Run the shared-state conformance gate instead of the sweep: the rwlock protocol \
           model checked exhaustively under SMC, the sharded hot-path model (maintenance \
           harnesses included) under the FastTrack race detector and lock-order analysis, \
           the real Atomic rwlock audited on racing domains, N domains driving one shared \
           store with the recorded history audited against the per-key model — then the \
           maintenance-racing gate (see --maint). Exit 1 on any finding.")

let shared_ops =
  Arg.(
    value & opt int 64
    & info [ "shared-ops" ]
        ~doc:
          "Operations per racing domain in the recorded shared-store workload of --shared, \
           --maint and --trace-audit.")

let lint_graph =
  Arg.(
    value
    & opt (some string) None
    & info [ "lint-graph" ] ~docv:"FILE"
        ~doc:
          "With --shared or --maint: export the dynamically observed lock-class acquisition \
           edges (one 'held acquired' pair per line) for the $(b,lint.exe --dynamic-graph) \
           static/dynamic cross-check.")

let trace_audit =
  Arg.(
    value & flag
    & info [ "trace-audit" ]
        ~doc:
          "Run the wire-trace audit instead of the sweep: record timestamped \
           invocation/response events from non-deterministic runs (chaos campaigns with \
           faults armed, racing domains on one shared store, the RPC request plane with \
           paginated scans) and validate each history offline against the per-key \
           linearizable model. Also runs the teeth suite: forged violation histories and \
           an armed fault-#18 scenario must all be rejected. --campaigns, --chaos-length, \
           --domains, --shared-ops and --seed scale the workloads. Exit 1 if any trace \
           fails its audit or any teeth case goes undetected.")

let maint =
  Arg.(
    value & flag
    & info [ "maint" ]
        ~doc:
          "Run the maintenance-plane conformance gate on its own (it also runs as part of \
           --shared): the sharded hot-path model with the maintenance-vs-foreground \
           harnesses under the FastTrack race detector and lock-order analysis (exporting \
           --lint-graph when asked), and N foreground domains racing a dedicated \
           maintenance domain on one shared store, the recorded history audited offline \
           against the per-key model. Exit 1 on any finding.")

let cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"Run the pre-deployment conformance checks")
    Term.(
      const run $ sequences $ length $ seed $ metrics_out $ sanitize $ batch_weight
      $ scan_weight $ chaos $ campaigns $ chaos_length $ domains $ shared $ shared_ops
      $ lint_graph $ trace_audit $ maint)

let () = exit (Cmd.eval' cmd)
