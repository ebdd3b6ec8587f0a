(* Range-scan plane (YCSB-E shape): short range scans over an ingested key
   space, plus the write-amplification cost of keeping that space
   scannable. Two compaction arms ingest the same workload:

     monolithic  l0_trigger = 0 — every compaction is a full merge
     levelled    l0_trigger / level_ratio defaults — partial compaction

   and report write amplification (index.run_bytes / ingested bytes; the
   levelled arm must not be worse) and scan throughput (scans of
   [scan_span] keys from random start keys). A third table runs the
   same scan mix through Store.Shared at 1/2/4 domains — the numbers
   recorded in EXPERIMENTS.md E15.

   Usage: scan_bench.exe [--smoke]   (--smoke: tiny op budget, the CI
   smoke run, < 30 s) *)

module S = Store.Default
module Sh = Store.Shared

let gate = Bench_gate.init ()
let smoke = gate.Bench_gate.smoke
let keys_total = if smoke then 256 else 1536
let rounds = if smoke then 2 else 4
let value_bytes = 64
let scans_total = if smoke then 200 else 2000
let scan_span = 50
let domain_arms = [ 1; 2; 4 ]

let fail_on fmt = Format.kasprintf failwith fmt

let key i = Printf.sprintf "k-%06d" i

let value i = String.init value_bytes (fun j -> Char.chr (33 + ((i + j) mod 90)))

let config ~levelled =
  {
    S.default_config with
    S.disk = { Disk.extent_count = 256; pages_per_extent = 64; page_size = 512 };
    S.index_flush_threshold = 64;
    S.compact_threshold = 8;
    S.l0_trigger = (if levelled then S.default_config.S.l0_trigger else 0);
  }

(* Ingest [rounds] sequential passes over the key space — YCSB-E's
   insert/update churn, in the range-partitioned order levelled LSMs are
   built for (each flushed L0 run covers a narrow key slice, so partial
   compaction touches few deeper runs). Monolithic full merge instead
   rewrites the entire live set every [compact_threshold] runs, which is
   where its write amplification comes from. Auto flush/compact per
   [config]; returns (store, write_amplification). *)
let ingest ~levelled =
  let s = S.create (config ~levelled) in
  for i = 0 to (rounds * keys_total) - 1 do
    let k = i mod keys_total in
    match S.put s ~key:(key k) ~value:(value i) with
    | Ok _ -> ()
    | Error e -> fail_on "put %d: %a" i S.pp_error e
  done;
  (match S.flush_index s with Ok _ -> () | Error e -> fail_on "flush_index: %a" S.pp_error e);
  ignore (S.pump s max_int);
  let ingested = float_of_int (rounds * keys_total * value_bytes) in
  let run_bytes = float_of_int (Obs.counter_value (S.obs s) "index.run_bytes") in
  (s, run_bytes /. ingested)

(* One scan of the [scan_span] keys from [lo] to [hi]. Returns the items
   seen, so the timed loop cannot be dead-code-eliminated. *)
let short_scan s ~lo ~hi =
  match S.scan s ~lo ~hi () with
  | Ok pairs -> List.length pairs
  | Error e -> fail_on "scan: %a" S.pp_error e

let bounds rng =
  let start = Util.Rng.int rng (max 1 (keys_total - scan_span)) in
  (key start, key (start + scan_span - 1))

let scan_arm s =
  let rng = Util.Rng.create 42L in
  let items = ref 0 in
  let (), elapsed =
    Util.Wallclock.timed (fun () ->
        for _ = 1 to scans_total do
          let lo, hi = bounds rng in
          items := !items + short_scan s ~lo ~hi
        done)
  in
  (float_of_int scans_total /. elapsed, !items)

(* Shared-store scan throughput: [domains] workers share one levelled
   store, each draining its slice of the scan mix through the
   materializing Sh.scan under the shard read locks. *)
let shared_scan_arm ?trace ~domains () =
  let sh = Sh.create ~shards:8 ?trace (config ~levelled:true) in
  List.iter
    (fun i ->
      match Sh.put sh ~key:(key i) ~value:(value i) with
      | Ok () -> ()
      | Error e -> fail_on "shared put %d: %a" i S.pp_error e)
    (List.init keys_total Fun.id);
  (match Sh.flush sh with Ok _ -> () | Error e -> fail_on "shared flush: %a" S.pp_error e);
  let per_domain = scans_total / domains in
  let counts, elapsed =
    Util.Wallclock.timed (fun () ->
        Conc.Domains.spawn_join ~domains (fun d ->
            let rng = Util.Rng.create (Int64.of_int (73 + d)) in
            let items = ref 0 in
            for _ = 1 to per_domain do
              let lo, hi = bounds rng in
              match Sh.scan sh ~lo ~hi () with
              | Ok pairs -> items := !items + List.length pairs
              | Error e -> fail_on "shared scan: %a" S.pp_error e
            done;
            !items))
  in
  (float_of_int (per_domain * domains) /. elapsed, List.fold_left ( + ) 0 counts)

let () =
  Printf.printf "scan bench: %d keys of %dB x%d rounds, %d scans of %d keys%s\n"
    keys_total value_bytes rounds scans_total scan_span
    (if smoke then " (smoke)" else "");
  let mono, mono_wa = ingest ~levelled:false in
  let lev, lev_wa = ingest ~levelled:true in
  let mono_sps, mono_items = scan_arm mono in
  let lev_sps, lev_items = scan_arm lev in
  Printf.printf "%-12s %10s %12s %9s\n" "arm" "write-amp" "scans/sec" "items";
  Printf.printf "%-12s %10.2f %12.0f %9d\n" "monolithic" mono_wa mono_sps mono_items;
  Printf.printf "%-12s %10.2f %12.0f %9d\n" "levelled" lev_wa lev_sps lev_items;
  let shared = List.map (fun d -> (d, shared_scan_arm ~domains:d ())) domain_arms in
  Printf.printf "%-12s %12s %9s\n" "shared" "scans/sec" "items";
  List.iter
    (fun (d, (sps, items)) -> Printf.printf "%d domains    %12.0f %9d\n" d sps items)
    shared;
  (* Wire-trace capture arm: the 2-domain shared mix re-run with a
     recorder attached (scan pages are the bulk of the trace, hence the
     big byte budget), audited offline after the run. *)
  let (cap_sps, cap_items), cap_audit =
    Bench_gate.capture ~byte_budget:(32 * 1024 * 1024) (fun trace ->
        shared_scan_arm ~trace ~domains:2 ())
  in
  Printf.printf "2 domains    %12.0f %9d  (recording; audit %s, %d dropped)\n" cap_sps cap_items
    (Tracecheck.Audit.verdict_name cap_audit.Tracecheck.Audit.verdict)
    cap_audit.Tracecheck.Audit.dropped;
  exit
    (Bench_gate.finish gate ~bench:"scan"
       ~domains:(List.fold_left max 1 domain_arms)
       ~workload:
         [
           ("keys", string_of_int keys_total);
           ("rounds", string_of_int rounds);
           ("value_bytes", string_of_int value_bytes);
           ("scans", string_of_int scans_total);
           ("scan_span", string_of_int scan_span);
         ]
       ~metrics:
         ([
            ("write_amp_monolithic", mono_wa);
            ("write_amp_levelled", lev_wa);
            ("scans_per_sec_monolithic", mono_sps);
            ("scans_per_sec_levelled", lev_sps);
          ]
         @ List.map
             (fun (d, (sps, _)) -> (Printf.sprintf "shared_scans_per_sec_d%d" d, sps))
             shared
         @ [ ("shared_scans_per_sec_d2_capture", cap_sps) ])
       [
         (* The recorded run must see the same data as the untraced
            2-domain arm, and its history must pass the offline audit. *)
         Bench_gate.check "capture arm items" (fun () ->
             let _, d2_items = List.assoc 2 shared in
             (cap_items = d2_items, Printf.sprintf "%d recording vs %d bare" cap_items d2_items));
         Bench_gate.audit_check "capture-arm trace audit" cap_audit;
         (* Correctness tripwires: both arms must see the same data, and
            the levelled arm must not amplify writes more than the
            full-merge arm. *)
         Bench_gate.check "scan items" (fun () ->
             ( mono_items = lev_items,
               Printf.sprintf "%d monolithic vs %d levelled" mono_items lev_items ));
         Bench_gate.check ~full_size:true "levelled write-amp" (fun () ->
             ( lev_wa <= mono_wa +. 0.01,
               Printf.sprintf "levelled %.2f vs monolithic %.2f" lev_wa mono_wa ));
       ])
