(* Batched request plane: put_batch (group commit) vs a sequential put
   loop, same total work per arm. Reports ops/sec per batch size plus the
   amortization counters, and the speedup over the sequential arm — the
   number recorded in EXPERIMENTS.md ("Batch throughput").

   Workload: small-object ingest (64 B values), the regime where
   per-request overhead dominates and group commit pays. Both arms run
   the same ingest-tuned maintenance cadence (index flush every 128 keys,
   compaction at 12 runs) sized to the 1024-op workload, so LSM
   maintenance — identical work in both arms — does not drown the
   request-plane cost being measured.

   Usage: batch_bench.exe [--smoke]   (--smoke: tiny op budget, the CI
   smoke run, < 30 s) *)

module S = Store.Default
module Sh = Store.Shared

let gate = Bench_gate.init ()
let smoke = gate.Bench_gate.smoke
let ops_total = if smoke then 192 else 1024
let value_bytes = 64
let repeats = if smoke then 1 else 3

let config =
  { S.default_config with S.index_flush_threshold = 128; S.compact_threshold = 12 }

let fail_on fmt = Format.kasprintf failwith fmt

(* The workload is precomputed so the timed region measures the store, not
   sprintf: [ops] is the flat key/value list, [batches n] the same ops cut
   into groups of [n]. *)
let ops =
  Array.init ops_total (fun i ->
      ( Printf.sprintf "k-%06d" i,
        String.init value_bytes (fun j -> Char.chr (33 + ((i + j) mod 90))) ))

let batches n =
  let out = ref [] in
  let i = ref 0 in
  while !i < ops_total do
    let m = min n (ops_total - !i) in
    out := List.init m (fun j -> ops.(!i + j)) :: !out;
    i := !i + m
  done;
  List.rev !out

(* Latency histograms for the appended BENCH_batch.json record. The two
   clock reads per request are paid identically by every arm, so the
   relative throughput numbers stay honest. *)
let rec_obs = Obs.create ~scope:"batch-bench" ~trace_capacity:0 ()

(* One arm: write [ops_total] unique shards in batches of [n] (n = 1 uses
   the scalar put path), then make everything durable so each arm pays for
   the same end state. Returns (elapsed seconds, appends, ios issued). *)
let run_arm ~lat ~batch_size:n =
  let s = S.create config in
  let work = if n = 1 then [] else batches n in
  let request f =
    let r, dt = Util.Wallclock.timed f in
    Obs.Histogram.observe lat (dt *. 1e6);
    r
  in
  let (), elapsed =
    Util.Wallclock.timed (fun () ->
        if n = 1 then
          Array.iteri
            (fun i (key, value) ->
              match request (fun () -> S.put s ~key ~value) with
              | Ok _ -> ()
              | Error e -> fail_on "put %d: %a" i S.pp_error e)
            ops
        else
          List.iter
            (fun batch ->
              match request (fun () -> S.put_batch s batch) with
              | Ok { S.results; _ } ->
                List.iter
                  (function Ok _ -> () | Error e -> fail_on "batch op: %a" S.pp_error e)
                  results
              | Error e -> fail_on "put_batch: %a" S.pp_error e)
            work;
        (match S.flush_index s with
        | Ok _ -> ()
        | Error e -> fail_on "flush_index: %a" S.pp_error e);
        (match S.flush_superblock s with
        | Ok _ -> ()
        | Error e -> fail_on "flush_superblock: %a" S.pp_error e);
        ignore (S.pump s max_int))
  in
  let obs = S.obs s in
  (elapsed, Obs.counter_value obs "iosched.append", Obs.counter_value obs "iosched.io_issued")

let median_arm ~batch_size =
  let lat = Obs.histogram rec_obs (Printf.sprintf "batch%02d.request_us" batch_size) in
  Bench_gate.median
    ~by:(fun (elapsed, _, _) -> elapsed)
    (List.init repeats (fun _ -> run_arm ~lat ~batch_size))

(* Wire-trace capture cost: the batch-16 ingest plus a full read-back,
   through Store.Shared (the instrumented surface), once bare and once
   with a recorder attached. The recorded history is audited offline —
   a bench run doubles as a trace-validation workload — and the
   throughput delta is the price of capture. Returns elapsed seconds. *)
let shared_capture_arm ?trace () =
  let sh = Sh.create ?trace config in
  snd
    (Util.Wallclock.timed (fun () ->
         List.iter
           (fun batch ->
             match Sh.put_batch sh batch with
             | Ok { Sh.results } ->
               List.iter
                 (function Ok () -> () | Error e -> fail_on "shared batch op: %a" S.pp_error e)
                 results
             | Error e -> fail_on "shared put_batch: %a" S.pp_error e)
           (batches 16);
         (match Sh.flush sh with Ok _ -> () | Error e -> fail_on "shared flush: %a" S.pp_error e);
         Array.iter
           (fun (key, value) ->
             match Sh.get sh ~key with
             | Ok (Some v) when v = value -> ()
             | Ok _ -> fail_on "shared get %s: wrong value back" key
             | Error e -> fail_on "shared get %s: %a" key S.pp_error e)
           ops))

let () =
  Printf.printf "batch throughput: %d puts of %dB values per arm%s\n" ops_total value_bytes
    (if smoke then " (smoke)" else "");
  let arms = [ 1; 4; 16; 64 ] in
  let results = List.map (fun n -> (n, median_arm ~batch_size:n)) arms in
  let seq_elapsed = match results with (1, (e, _, _)) :: _ -> e | _ -> assert false in
  Printf.printf "%-10s %12s %9s %9s %6s\n" "batch" "ops/sec" "appends" "ios" "vs seq";
  List.iter
    (fun (n, (elapsed, appends, ios)) ->
      Printf.printf "%-10d %12.0f %9d %9d %5.2fx\n" n
        (float_of_int ops_total /. elapsed)
        appends ios (seq_elapsed /. elapsed))
    results;
  let bare_elapsed = shared_capture_arm () in
  let cap_elapsed, cap_audit =
    Bench_gate.capture ~byte_budget:(8 * 1024 * 1024) (fun trace ->
        shared_capture_arm ~trace ())
  in
  let cap_ops = float_of_int (2 * ops_total) in
  let cap_dropped = cap_audit.Tracecheck.Audit.dropped in
  Printf.printf
    "capture (shared b16 + read-back): %.0f ops/s bare, %.0f ops/s recording (%.2fx), audit \
     %s, %d dropped\n"
    (cap_ops /. bare_elapsed) (cap_ops /. cap_elapsed) (cap_elapsed /. bare_elapsed)
    (Tracecheck.Audit.verdict_name cap_audit.Tracecheck.Audit.verdict)
    cap_dropped;
  let speedup_16 =
    let e, _, _ = List.assoc 16 results in
    seq_elapsed /. e
  in
  exit
    (Bench_gate.finish gate ~bench:"batch" ~domains:1
       ~workload:
         [
           ("ops", string_of_int ops_total);
           ("value_bytes", string_of_int value_bytes);
           ("repeats", string_of_int repeats);
         ]
       ~metrics:
         (List.concat_map
            (fun (n, (elapsed, _, _)) ->
              [
                (Printf.sprintf "ops_per_sec_b%d" n, float_of_int ops_total /. elapsed);
                (Printf.sprintf "speedup_b%d" n, seq_elapsed /. elapsed);
              ])
            results
         @ [
             ("ops_per_sec_b16_nocapture", cap_ops /. bare_elapsed);
             ("ops_per_sec_b16_capture", cap_ops /. cap_elapsed);
             ("capture_overhead", cap_elapsed /. bare_elapsed);
             ("trace_dropped", float_of_int cap_dropped);
           ])
       ~obs:rec_obs
       [
         Bench_gate.audit_check "capture-arm trace audit" cap_audit;
         Bench_gate.check ~full_size:true "batch=16 speedup" (fun () ->
             (speedup_16 >= 2.0, Printf.sprintf "%.2fx (want >= 2x)" speedup_16));
       ])
