(* The repo benchmark: one workload per process. See README.md in this
   directory for the workloads, the metrics and why each was chosen.

   bench --workload NAME --seed N --seconds S --trace 0|1 *)

open Measure

let end_to_end o =
  let r = Stats.report in
  let heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  r "setup_s" (Stats.median !setup_times) "s";
  r "ops_per_s" o.ops_per_s "1/s";
  List.iter
    (fun (name, s) ->
      r (name ^ "_p50_us") (Samples.windowed s 0.5) "us";
      r (name ^ "_p95_us") (Samples.windowed s 0.95) "us")
    [ ("get", get_s); ("put", put_s); ("batch", batch_s); ("scan", scan_s) ];
  r "write_amp" o.amp.write_amp "ratio";
  r "space_amp" o.amp.space_amp "ratio";
  r "peak_heap_mb" (float_of_int heap_bytes /. 1048576.) "MiB";
  r "validate_s" o.validate_s "s"

(* Layer times must add up to the untraced time per loop step within this
   share. *)
let tolerance = 0.25

let per_layer o ~minor_words ~major_collections =
  let r = Stats.report in
  let count name v = r name (float_of_int v) "count" in
  let c = counter in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let per_op n = ratio n !client_ops in
  let spans = Span.summary () in
  let calls_total name =
    match Hashtbl.find_opt spans name with Some (calls, total, _) -> (calls, total) | None -> (0, 0)
  in
  let mean_us name =
    let calls, total = calls_total name in
    if calls = 0 then 0. else float_of_int total /. float_of_int calls /. 1e3
  in
  (* Validation components, per traced suite pass. *)
  let traced_passes = fst (calls_total "op.validate") in
  let per_pass name =
    if traced_passes = 0 then 0.
    else float_of_int (snd (calls_total name)) /. float_of_int traced_passes /. 1e9
  in
  r "rpc.codec_us" (mean_us "rpc.codec") "us";
  r "rpc.handle_us" (mean_us "rpc.handle") "us";
  r "rpc.self_us"
    (if mean_us "rpc.handle" = 0. then 0. else mean_us "rpc.handle" -. mean_us "probe.store.get")
    "us";
  r "rpc.tick_us" (mean_us "rpc.tick") "us";
  count "rpc.tick_errors" (c "rpc.tick_error");
  r "store.get_us" (mean_us "probe.store.get") "us";
  count "store.gc_fallback" (c "store.put.gc_fallback");
  count "store.batch_fallback" (c "store.put_batch.fallback");
  r "lsm.locate_us" (mean_us "probe.lsm.locate") "us";
  r "lsm.lookups_per_op" (per_op (c "index.get.memtable" + c "index.get.run")) "count/op";
  count "lsm.flushes" (c "index.flush");
  count "lsm.compactions" (c "index.compact");
  count "lsm.partial_compactions" (c "index.compact.partial");
  r "lsm.write_amp" (ratio o.amp.run_bytes o.amp.stored) "ratio";
  count "lsm.runs_end" o.amp.runs_end;
  r "chunk.read_us" (mean_us "probe.chunk.read") "us";
  count "chunk.reclaims" (c "chunk.reclamation");
  count "chunk.evacuated" (c "reclaim.evacuated");
  count "chunk.dropped" (c "reclaim.dropped");
  r "chunk.reclaim_yield"
    (ratio (c "reclaim.dropped") (c "reclaim.evacuated" + c "reclaim.dropped"))
    "ratio";
  r "cache.hit_rate" (ratio (c "cache.hit") (c "cache.hit" + c "cache.miss")) "ratio";
  count "cache.evictions" (c "cache.eviction");
  r "iosched.ios_per_op" (per_op (c "iosched.io_issued")) "count/op";
  r "iosched.coalesce_ratio" (ratio (c "iosched.coalesced_append") (c "iosched.append")) "ratio";
  r "iosched.bytes_issued" (float_of_int (c "iosched.bytes_issued")) "bytes";
  r "superblock.records_per_op" (per_op (c "superblock.record")) "count/op";
  count "disk.writes" (c "disk.write");
  count "disk.resets" (c "disk.reset");
  r "disk.bytes_written" (float_of_int (c "disk.bytes_written")) "bytes";
  let open Validation in
  r "lfm.sweep_s" (per_pass "lfm.sweep") "s";
  r "lfm.us_per_op"
    (let ops_per_pass = ratio !lfm_ops !passes in
     if ops_per_pass = 0. then 0. else per_pass "lfm.sweep" *. 1e6 /. ops_per_pass)
    "us";
  r "chaos.run_s" (per_pass "chaos.run") "s";
  r "tracecheck.capture_s" (per_pass "tracecheck.capture") "s";
  r "tracecheck.audit_s" (per_pass "tracecheck.audit") "s";
  count "tracecheck.search_nodes" !search_nodes;
  r "smc.explore_s" (per_pass "smc.explore") "s";
  count "smc.schedules" !schedules;
  count "fleet.retries" !fleet_retries;
  count "fleet.partial_writes" !fleet_partial_writes;
  r "gc.minor_words_per_op" (minor_words /. float_of_int (max 1 o.work)) "words/op";
  count "gc.major_collections" major_collections;
  (* Overhead: traced over untraced time per loop step. The layer times
     (the root spans of the traced blocks) must add up to the untraced
     time per step within [tolerance]. *)
  let per_step p = if p.steps = 0 then 0. else float_of_int p.ns /. float_of_int p.steps in
  let root_ns, uncovered_ns = Span.roots () in
  let layer_sum = if traced.steps = 0 then 0. else float_of_int root_ns /. float_of_int traced.steps in
  let untraced = per_step plain in
  let sum_ratio = if untraced = 0. then 0. else layer_sum /. untraced in
  r "trace.overhead" (if untraced = 0. then 0. else (per_step traced /. untraced) -. 1.) "ratio";
  r "trace.layer_sum_ratio" sum_ratio "ratio";
  r "trace.unattributed_frac" (ratio uncovered_ns root_ns) "ratio";
  count "trace.spans" (Span.count ());
  r "failed_frac" (ratio Stats.run.failed (max 1 Stats.run.attempted)) "ratio";
  List.iter (fun k -> count ("err." ^ k) (Stats.errors_of k)) Stats.error_kinds;
  Printf.printf "trace: layer times / untraced time per step = %.3f, %s within %.2f\n" sum_ratio
    (if Float.abs (sum_ratio -. 1.) <= tolerance then "reconciled" else "NOT reconciled")
    tolerance

let () =
  let workload = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point-read|validate-sweep");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run reporting per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "point-read" -> Storage.point_read
    | "validate-sweep" -> Validation.validate_sweep
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "host: %d cores, OCaml %s, commit %s\n%!" nproc Sys.ocaml_version
    (Bench_record.commit ());
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let o = run () in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  fact "%d keys for 1 client; 1 of %d domains" o.nkeys nproc;
  Printf.printf "samples: get %d, put %d, batch %d, scan %d; %d setups\n" (Samples.count get_s)
    (Samples.count put_s) (Samples.count batch_s) (Samples.count scan_s)
    (List.length !setup_times);
  if !trace = 1 then begin
    per_layer o ~minor_words ~major_collections;
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    Span.write (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload !seed)
  end
  else end_to_end o;
  List.iter (Printf.eprintf "output check failed: %s\n") (List.rev Stats.run.first_wrong);
  let correct = Stats.run.wrong = 0 in
  Stats.finish ~correct;
  if not correct then exit 1
