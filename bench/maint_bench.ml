(* E17 bench gate: what a racing maintenance domain costs the foreground.
   Four arms over identical seeded workloads (Experiments.Maint_contention):
   no flushing at all, the global-stack-lock baseline (foreground stalls on
   its own whole-drain flushes — the pre-maintenance-plane discipline),
   maintenance with whole-drain stack holds (flush_chunk = 0), and
   maintenance with narrowed per-chunk stack holds. Always checked, on any
   hardware: zero errors, maintenance actually ran, single-domain
   byte-identity vs Store.Default, and the headline — foreground
   throughput with a racing narrowed flush >= the global-stack-lock
   baseline. The narrow-vs-coarse racing ordering is recorded everywhere
   but only judged on a host with >= 2 cores — on a 1-core box every
   chunk boundary is a forced context switch, so that ordering measures
   the scheduler's timeslicing, not this code.

   Usage: maint_bench.exe [--smoke]   (--smoke: small budgets, 2
   foreground domains — the CI smoke run, well under a minute) *)

module M = Experiments.Maint_contention

let gate = Bench_gate.init ()
let smoke = gate.Bench_gate.smoke

let () =
  Printf.printf "maint bench: foreground vs maintenance contention%s (host recommends %d domain(s))\n\n"
    (if smoke then " (smoke)" else "")
    gate.Bench_gate.cores;
  let domains = if smoke then 2 else 4 in
  let ops_per_domain = if smoke then 600 else 4000 in
  let repeats = if smoke then 3 else 5 in
  let r = M.run ~domains ~ops_per_domain ~repeats ~seed:1 () in
  M.print r;
  let ops label = (M.arm r label).M.ops_per_sec in
  let ratio a b = ops a /. Float.max 1e-9 (ops b) in
  let maint_stat f label =
    match (M.arm r label).M.maint with None -> 0.0 | Some s -> float_of_int (f s)
  in
  let errors f = List.fold_left (fun n a -> n + f a) 0 r.M.arms in
  (* Each racing arm's maintenance errors, one metric per kind. *)
  let errors_by_kind label =
    List.map
      (fun (kind, n) ->
        ( Printf.sprintf "%s_errors_%s"
            (String.map (function '-' -> '_' | c -> c) label)
            (String.lowercase_ascii kind),
          float_of_int n ))
      (M.arm r label).M.errors_by_kind
  in
  exit
    (Bench_gate.finish gate ~bench:"maint" ~domains
       ~workload:
         [
           ("ops_per_domain", string_of_int r.M.ops_per_domain);
           ("keys", string_of_int r.M.keys);
           ("value_bytes", string_of_int r.M.value_bytes);
           ("repeats", string_of_int r.M.repeats);
         ]
       ~metrics:
         ([
            ("fg_only_ops_per_sec", ops "fg-only");
            ("inline_coarse_ops_per_sec", ops "inline-coarse");
            ("maint_coarse_ops_per_sec", ops "maint-coarse");
            ("maint_narrow_ops_per_sec", ops "maint-narrow");
            ("narrow_vs_baseline", ratio "maint-narrow" "inline-coarse");
            ("narrow_vs_coarse", ratio "maint-narrow" "maint-coarse");
            ("coarse_flushes", maint_stat (fun s -> s.Store.Shared.Maint.flushes) "maint-coarse");
            ("narrow_flushes", maint_stat (fun s -> s.Store.Shared.Maint.flushes) "maint-narrow");
            ("narrow_drained", maint_stat (fun s -> s.Store.Shared.Maint.drained) "maint-narrow");
            ("conformance_ok", if r.M.conformance_ok then 1.0 else 0.0);
          ]
         @ errors_by_kind "maint-coarse"
         @ errors_by_kind "maint-narrow")
       [
         Bench_gate.check "errors and byte-identity" (fun () ->
             ( M.ok r,
               Printf.sprintf "%d foreground and %d maintenance errors, byte-identity %s"
                 (errors (fun a -> a.M.fg_errors))
                 (errors (fun a ->
                      match a.M.maint with Some s -> s.Store.Shared.Maint.errors | None -> 0))
                 (if r.M.conformance_ok then "ok" else "FAILED") ));
         Bench_gate.check "narrowed vs inline baseline" (fun () ->
             ( M.narrow_beats_baseline r,
               Printf.sprintf
                 "%.2fx (want >= 1x: racing narrowed flushes must cost the foreground no \
                  more than stalling on its own global-stack-lock flushes)"
                 (ratio "maint-narrow" "inline-coarse") ));
         Bench_gate.check ~cores:2 "narrowed vs coarse racing" (fun () ->
             ( M.narrow_beats_coarse r,
               Printf.sprintf "%.2fx (want >= 1x: narrowed holds no costlier than whole-drain)"
                 (ratio "maint-narrow" "maint-coarse") ));
       ])
