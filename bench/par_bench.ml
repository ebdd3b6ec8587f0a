(* E14 bench gate: the multicore validation engine must (a) return
   byte-identical results at every domain count — always checked, on any
   hardware — and (b) actually scale: Fig. 5 catalog wall clock >= 2.5x
   faster at 4 domains than at 1. The speedup check is judged only on
   full-size runs on a host with >= 4 cores (Par.default_domains);
   determinism is checkable anywhere (spawning more domains than cores
   just adds overhead), but a speedup assertion on a 1-core CI box would
   measure the scheduler, not this code.

   Usage: par_bench.exe [--smoke]   (--smoke: small budgets, domain
   counts {1, 2} — the CI determinism smoke run, < 1 min) *)

let gate = Bench_gate.init ()
let smoke = gate.Bench_gate.smoke

let () =
  Printf.printf "par bench: multicore validation engine%s (host recommends %d domain(s))\n\n"
    (if smoke then " (smoke)" else "")
    gate.Bench_gate.cores;
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let budget =
    if smoke then
      {
        Experiments.Fig5.quick_budget with
        Experiments.Fig5.pbt_sequences = 300;
        f10_sequences = 500;
        smc_schedules = 5_000;
      }
    else Experiments.Fig5.quick_budget
  in
  let campaigns = if smoke then 12 else 50 in
  let report = Experiments.Par_scaling.run ~domain_counts ~budget ~campaigns () in
  Experiments.Par_scaling.print report;
  (* Per-arm wall clock as a latency histogram, speedups as the headline
     metrics. *)
  let rec_obs = Obs.create ~scope:"par-bench" ~trace_capacity:0 () in
  let arm_metrics prefix rows =
    List.concat_map
      (fun r ->
        let lat = Obs.histogram rec_obs (Printf.sprintf "%s.arm_ms" prefix) in
        Obs.Histogram.observe lat (r.Experiments.Par_scaling.seconds *. 1e3);
        [
          ( Printf.sprintf "%s_speedup_d%d" prefix r.Experiments.Par_scaling.domains,
            r.Experiments.Par_scaling.speedup );
        ])
      rows
  in
  (* Wire-trace capture cost on the chaos sweep: the same seeded
     campaigns bare and with recorders attached. Capture must not change
     the merged summary (the determinism guarantee extends to traced
     runs), and the wall-clock ratio is the price of recording. *)
  Faults.disable_all ();
  let cap_campaigns = if smoke then 20 else 100 in
  let chaos_bare = Experiments.Chaos.run ~domains:2 ~campaigns:cap_campaigns ~seed:0 () in
  let chaos_taped =
    Experiments.Chaos.run ~domains:2 ~campaigns:cap_campaigns ~seed:0 ~capture:true ()
  in
  Printf.printf "\nchaos capture cost (%d campaigns): %.2fs bare, %.2fs recording (%.2fx)\n"
    cap_campaigns chaos_bare.Experiments.Chaos.seconds chaos_taped.Experiments.Chaos.seconds
    (chaos_taped.Experiments.Chaos.seconds /. chaos_bare.Experiments.Chaos.seconds);
  (* Traces themselves differ (one is empty), so compare the summaries
     with wall clock and per-report traces masked out. *)
  let capture_key (s : Experiments.Chaos.summary) =
    {
      s with
      Experiments.Chaos.seconds = 0.;
      failed = List.map (fun r -> { r with Experiments.Chaos.trace = [] }) s.failed;
    }
  in
  exit
    (Bench_gate.finish gate ~bench:"par"
       ~domains:(List.fold_left max 1 domain_counts)
       ~workload:
         [
           ("domain_counts", String.concat "," (List.map string_of_int domain_counts));
           ("campaigns", string_of_int campaigns);
         ]
       ~metrics:
         (arm_metrics "fig5" report.Experiments.Par_scaling.fig5
         @ arm_metrics "chaos" report.Experiments.Par_scaling.chaos
         @ [
             ( "chaos_campaigns_per_sec_nocapture",
               float_of_int cap_campaigns /. chaos_bare.Experiments.Chaos.seconds );
             ( "chaos_campaigns_per_sec_capture",
               float_of_int cap_campaigns /. chaos_taped.Experiments.Chaos.seconds );
             ( "chaos_capture_overhead",
               chaos_taped.Experiments.Chaos.seconds /. chaos_bare.Experiments.Chaos.seconds );
           ])
       ~obs:rec_obs
       [
         Bench_gate.check "determinism" (fun () ->
             let same = Experiments.Par_scaling.all_identical report in
             ( same,
               if same then "byte-identical at every domain count"
               else "results diverged across domain counts" ));
         Bench_gate.check "capture determinism" (fun () ->
             let same = capture_key chaos_bare = capture_key chaos_taped in
             ( same,
               if same then "chaos summary unchanged by capture"
               else "chaos summary changed when capture was enabled" ));
         Bench_gate.check ~cores:4 ~full_size:true "Fig. 5 speedup at 4 domains" (fun () ->
             match
               List.find_opt
                 (fun r -> r.Experiments.Par_scaling.domains = 4)
                 report.Experiments.Par_scaling.fig5
             with
             | Some r ->
               let s = r.Experiments.Par_scaling.speedup in
               (s >= 2.5, Printf.sprintf "%.2fx (want >= 2.5x)" s)
             | None -> (false, "no 4-domain arm"));
       ])
