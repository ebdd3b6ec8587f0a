(* Tests for the unified observability layer: the registry itself (labels,
   scoping, histograms, trace ring), parity between the legacy stats views
   and the registry they are built from, one registry spanning the whole
   storage stack, the blind-spot gate (paper section 4.2), and trace
   attachment to counterexamples. *)

module S = Store.Default

let contains s affix =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* {2 Registry semantics} *)

let test_counter_basics () =
  let obs = Obs.create ~scope:"t" () in
  let c = Obs.counter obs "req" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Obs.Counter.value c);
  (* resolving again yields the same series *)
  Obs.Counter.incr (Obs.counter obs "req");
  Alcotest.(check int) "shared series" 6 (Obs.counter_value obs "req")

let test_label_scoping () =
  let obs = Obs.create () in
  let a = Obs.counter ~labels:[ ("disk", "0") ] obs "io" in
  let b = Obs.counter ~labels:[ ("disk", "1") ] obs "io" in
  Obs.Counter.incr a;
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "disk 0" 2 (Obs.counter_value ~labels:[ ("disk", "0") ] obs "io");
  Alcotest.(check int) "disk 1" 1 (Obs.counter_value ~labels:[ ("disk", "1") ] obs "io");
  Alcotest.(check int) "unlabelled distinct" 0 (Obs.counter_value obs "io");
  (* label order does not create a new series *)
  let c1 = Obs.counter ~labels:[ ("a", "1"); ("b", "2") ] obs "multi" in
  let c2 = Obs.counter ~labels:[ ("b", "2"); ("a", "1") ] obs "multi" in
  Obs.Counter.incr c1;
  Alcotest.(check int) "order-insensitive" 1 (Obs.Counter.value c2)

let test_instance_scoping () =
  (* two registries never collide — the fleet's per-store invariant *)
  let o1 = Obs.create ~scope:"store-0" () in
  let o2 = Obs.create ~scope:"store-1" () in
  Obs.Counter.add (Obs.counter o1 "cache.hit") 7;
  Alcotest.(check int) "o1 sees its own" 7 (Obs.counter_value o1 "cache.hit");
  Alcotest.(check int) "o2 untouched" 0 (Obs.counter_value o2 "cache.hit")

let test_kind_mismatch () =
  let obs = Obs.create () in
  ignore (Obs.counter obs "x");
  match Obs.gauge obs "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter as a gauge must fail"

let test_gauge () =
  let obs = Obs.create () in
  let g = Obs.gauge obs "pending" in
  Obs.Gauge.set_int g 3;
  Alcotest.(check (float 0.0)) "set_int" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set g 0.5;
  Alcotest.(check (float 0.0)) "set" 0.5 (Obs.Gauge.value g)

let test_histogram_bucketing () =
  let obs = Obs.create () in
  let h = Obs.histogram ~buckets:[ 10.0; 100.0 ] obs "bytes" in
  List.iter (Obs.Histogram.observe h) [ 5.0; 10.0; 50.0; 500.0 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "sum" 565.0 (Obs.Histogram.sum h);
  (* bounds inclusive, last bucket is the overflow *)
  match Obs.Histogram.buckets h with
  | [ (10.0, 2); (100.0, 1); (bound, 1) ] when bound = infinity -> ()
  | bs ->
    Alcotest.failf "unexpected buckets: %s"
      (String.concat "; " (List.map (fun (b, n) -> Printf.sprintf "(%g,%d)" b n) bs))

let test_snapshot_and_reset () =
  let obs = Obs.create () in
  Obs.Counter.incr (Obs.counter obs "b");
  Obs.Counter.incr (Obs.counter obs "a");
  Obs.Gauge.set (Obs.gauge obs "g") 2.0;
  let names = List.map (fun s -> s.Obs.name) (Obs.snapshot obs) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "g" ] names;
  Obs.reset obs;
  Alcotest.(check int) "counter zeroed" 0 (Obs.counter_value obs "a");
  (* handles stay live across reset *)
  Obs.Counter.incr (Obs.counter obs "a");
  Alcotest.(check int) "still wired" 1 (Obs.counter_value obs "a")

let test_jsonl () =
  let obs = Obs.create ~scope:"test" () in
  Obs.Counter.add (Obs.counter ~labels:[ ("k", "v\"q") ] obs "c") 2;
  Obs.Gauge.set (Obs.gauge obs "g") 1.5;
  ignore (Obs.histogram ~buckets:[ 1.0 ] obs "h");
  let lines = String.split_on_char '\n' (String.trim (Obs.to_jsonl obs)) in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "scope present" true (contains line {|"scope":"test"|}))
    lines

(* A finite float reads back from its encoding exactly, over the whole
   range of exponents (random bit patterns, not just small values). *)
let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"json_float round-trips finite floats" ~count:2000
    QCheck.(make ~print:string_of_float Gen.(map Int64.float_of_bits ui64))
    (fun v ->
      QCheck.assume (Float.is_finite v);
      float_of_string (Obs.json_float v) = v)

let test_json_float_cases () =
  let check name want v = Alcotest.(check string) name want (Obs.json_float v) in
  check "shortest, not %g" "0.1234567" 0.1234567;
  check "shortest above 1e4" "12345.678" 12345.678;
  check "needs 17 digits" "0.30000000000000004" (0.1 +. 0.2);
  check "integral unchanged" "3" 3.0;
  check "negative integral" "-42" (-42.0);
  check "large integral" "1e+15" 1e15;
  check "+inf quoted" {|"+inf"|} infinity;
  check "-inf quoted" {|"-inf"|} neg_infinity;
  check "nan quoted" {|"nan"|} Float.nan

(* {2 Trace ring} *)

let test_ring_wraparound () =
  let obs = Obs.create ~trace_capacity:4 () in
  Alcotest.(check bool) "tracing on" true (Obs.tracing obs);
  for i = 0 to 9 do
    Obs.emit obs ~layer:"l" "e" [ ("i", string_of_int i) ]
  done;
  Alcotest.(check int) "emitted survives wrap" 10 (Obs.events_emitted obs);
  let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) (Obs.recent obs) in
  Alcotest.(check (list int)) "last capacity events, oldest first" [ 6; 7; 8; 9 ] seqs;
  let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) (Obs.recent ~n:2 obs) in
  Alcotest.(check (list int)) "recent ~n trims from the old end" [ 8; 9 ] seqs;
  match Obs.recent ~n:1 obs with
  | [ e ] -> Alcotest.(check string) "attrs survive" "9" (List.assoc "i" e.Obs.attrs)
  | _ -> Alcotest.fail "recent ~n:1"

let test_tracing_disabled () =
  let obs = Obs.create () in
  Alcotest.(check bool) "off by default" false (Obs.tracing obs);
  Obs.emit obs ~layer:"l" "e" [];
  Alcotest.(check int) "no-op" 0 (Obs.events_emitted obs);
  Alcotest.(check int) "empty" 0 (List.length (Obs.recent obs))

let test_set_tracing () =
  let obs = Obs.create ~trace_capacity:8 () in
  Obs.set_tracing obs false;
  Obs.emit obs ~layer:"l" "dropped" [];
  Obs.set_tracing obs true;
  Obs.emit obs ~layer:"l" "kept" [];
  match Obs.recent obs with
  | [ e ] -> Alcotest.(check string) "only resumed events" "kept" e.Obs.event
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

(* {2 Legacy stats views are views over the registry} *)

let disk_config = { Disk.extent_count = 8; pages_per_extent = 8; page_size = 32 }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "iosched error: %a" Io_sched.pp_error e

let test_iosched_counters () =
  let sched = Io_sched.create ~seed:3L (Disk.create disk_config) in
  for i = 0 to 5 do
    ignore (ok (Io_sched.append sched ~extent:(i mod 4) ~data:"payload" ~input:Dep.trivial))
  done;
  ignore (Io_sched.pump sched);
  ignore (ok (Io_sched.reset sched ~extent:7 ~input:Dep.trivial));
  ignore (Io_sched.pump sched);
  let obs = Io_sched.obs sched in
  let count name = Obs.counter_value obs name in
  Alcotest.(check int) "appends" 6 (count "iosched.append");
  Alcotest.(check int) "resets" 1 (count "iosched.reset");
  (* at most one IO per append or reset; coalescing may merge the two
     appends to one extent, but not appends to different extents *)
  let ios = count "iosched.io_issued" in
  Alcotest.(check bool) (Printf.sprintf "ios %d in [5, 7]" ios) true (ios >= 5 && ios <= 7);
  Alcotest.(check int) "bytes" (6 * String.length "payload") (count "iosched.bytes_issued");
  Alcotest.(check int) "crashes" 0 (count "iosched.crash");
  (* the scheduler inherited the disk's registry: one registry, two layers *)
  Alcotest.(check bool) "disk writes in same registry" true
    (Obs.counter_value obs "disk.write" > 0)

let test_cache_counters () =
  let sched = Io_sched.create ~seed:4L (Disk.create disk_config) in
  let cache = Cache.create ~capacity_pages:2 sched in
  ignore (ok (Io_sched.append sched ~extent:0 ~data:(String.make 96 'x') ~input:Dep.trivial));
  ignore (Io_sched.pump sched);
  for _ = 1 to 3 do
    ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:32));
    ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:32));
    (* third distinct page overflows the 2-page capacity *)
    ignore (ok (Cache.read cache ~extent:0 ~off:32 ~len:32));
    ignore (ok (Cache.read cache ~extent:0 ~off:64 ~len:32))
  done;
  (* LRU over pages 0 0 1 2, three times: the first round misses 0, 1
     and 2 and evicts 0; every later round misses all three and evicts
     three times. The repeated read of page 0 always hits. *)
  let count name = Obs.counter_value (Cache.obs cache) name in
  Alcotest.(check int) "hits" 3 (count "cache.hit");
  Alcotest.(check int) "misses" 9 (count "cache.miss");
  Alcotest.(check int) "evictions" 7 (count "cache.eviction")

(* {2 One registry across the whole stack} *)

let layer_of_metric name =
  match String.index_opt name '.' with
  | Some i -> (
    match String.sub name 0 i with
    | "reclaim" -> "chunk"  (* reclaim counters are the chunk store's *)
    | "crash" -> "iosched"
    | l -> l)
  | None -> name

let test_store_unifies_layers () =
  let s = S.create S.test_config in
  for i = 0 to 19 do
    match S.put s ~key:(Printf.sprintf "k%d" (i mod 8)) ~value:(String.make (20 + i) 'v') with
    | Ok _ | Error S.No_space -> ()
    | Error e -> Alcotest.failf "put: %a" S.pp_error e
  done;
  List.iter (fun k -> ignore (S.get s ~key:k)) [ "k0"; "k1"; "missing" ];
  ignore (S.delete s ~key:"k2");
  ignore (S.flush_index s);
  ignore (S.flush_superblock s);
  ignore (S.pump s 10_000);
  let layers =
    List.sort_uniq compare
      (List.filter_map
         (fun (sample : Obs.sample) ->
           match sample.Obs.value with
           | Obs.Counter_v n when n > 0 -> Some (layer_of_metric sample.Obs.name)
           | _ -> None)
         (Obs.snapshot (S.obs s)))
  in
  List.iter
    (fun layer ->
      Alcotest.(check bool) (layer ^ " instrumented") true (List.mem layer layers))
    [ "disk"; "iosched"; "cache"; "chunk"; "index"; "store"; "superblock"; "logroll" ];
  (* and the trace ring saw the traffic *)
  Alcotest.(check bool) "events recorded" true (Obs.events_emitted (S.obs s) > 0)

let test_store_registries_are_private () =
  let a = S.create S.test_config in
  let b = S.create S.test_config in
  (match S.put a ~key:"k" ~value:"v" with Ok _ -> () | Error e -> Alcotest.failf "%a" S.pp_error e);
  Alcotest.(check int) "a counted" 1 (Obs.counter_value (S.obs a) "store.put");
  Alcotest.(check int) "b clean" 0 (Obs.counter_value (S.obs b) "store.put")

(* {2 Multi-domain handle updates and registry merging}

   The thread-safety contract (obs.mli): handle updates are safe from any
   set of domains; registration and merge_into are driver-side operations
   performed while no workers run. *)

let test_counter_atomic_across_domains () =
  let obs = Obs.create ~trace_capacity:0 () in
  let c = Obs.counter obs "hits" in
  let writers = 4 and per_writer = 25_000 in
  let worker () =
    for _ = 1 to per_writer do
      Obs.Counter.incr c
    done
  in
  let ds = List.init (writers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  (* no lost updates: a plain int would drop increments here *)
  Alcotest.(check int) "exact total" (writers * per_writer) (Obs.Counter.value c)

let test_merge_counters_from_domain_registries () =
  (* the lib/par pattern: one registry per worker domain, merged in seed
     order after the joins *)
  let workers = 3 and per_worker = 10_000 in
  let regs = List.init workers (fun _ -> Obs.create ~trace_capacity:0 ()) in
  let ds =
    List.map
      (fun obs ->
        Domain.spawn (fun () ->
            let c = Obs.counter obs "work" in
            for _ = 1 to per_worker do
              Obs.Counter.incr c
            done))
      regs
  in
  List.iter Domain.join ds;
  let into = Obs.create ~trace_capacity:0 () in
  Obs.Counter.add (Obs.counter into "work") 7;
  List.iter (fun src -> Obs.merge_into ~into src) regs;
  Alcotest.(check int) "sum of all domains" (7 + (workers * per_worker))
    (Obs.counter_value into "work")

let test_merge_gauge_adopts_last () =
  let into = Obs.create () in
  Obs.Gauge.set (Obs.gauge into "depth") 1.0;
  let a = Obs.create () and b = Obs.create () in
  Obs.Gauge.set (Obs.gauge a "depth") 2.0;
  Obs.Gauge.set (Obs.gauge b "depth") 3.0;
  Obs.merge_into ~into a;
  Obs.merge_into ~into b;
  (* last-merged wins, as a sequential aggregation's final set would *)
  Alcotest.(check (float 0.0)) "adopted" 3.0 (Obs.Gauge.value (Obs.gauge into "depth"))

let test_merge_histogram_bound_mismatch () =
  let into = Obs.create () in
  ignore (Obs.histogram ~buckets:[ 1.0; 10.0 ] into "lat");
  let src = Obs.create () in
  Obs.Histogram.observe (Obs.histogram ~buckets:[ 1.0; 100.0 ] src "lat") 5.0;
  Alcotest.check_raises "bounds differ"
    (Invalid_argument "Obs.merge_into: histogram \"lat\" bucket bounds differ") (fun () ->
      Obs.merge_into ~into src)

let test_merge_histograms_from_domains () =
  let mk () = Obs.create ~trace_capacity:0 () in
  let regs = List.init 3 (fun _ -> mk ()) in
  let ds =
    List.mapi
      (fun i obs ->
        Domain.spawn (fun () ->
            let h = Obs.histogram obs "lat" in
            for j = 1 to 100 do
              Obs.Histogram.observe h (float_of_int ((i * 100) + j))
            done))
      regs
  in
  List.iter Domain.join ds;
  let into = mk () in
  List.iter (fun src -> Obs.merge_into ~into src) regs;
  match Obs.find into "lat" with
  | Some (Obs.Histogram_v { count; sum; buckets }) ->
    Alcotest.(check int) "count" 300 count;
    (* sum of 1..300 *)
    Alcotest.(check (float 0.001)) "sum" 45_150.0 sum;
    Alcotest.(check int) "bucket mass" 300 (List.fold_left (fun a (_, n) -> a + n) 0 buckets)
  | _ -> Alcotest.fail "histogram missing after merge"

(* {2 The global coverage table and the blind-spot gate} *)

let test_coverage_facade () =
  Obs.Coverage.reset ();
  Obs.Coverage.hit "manual.path";
  Alcotest.(check int) "direct hit" 1 (Obs.Coverage.count "manual.path");
  (* instance counters with ~coverage:true feed the same global table *)
  let obs = Obs.create () in
  let c = Obs.counter ~coverage:true obs "manual.path" in
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Alcotest.(check int) "instance feeds global" 3 (Obs.Coverage.count "manual.path");
  Alcotest.(check int) "instance keeps its own" 2 (Obs.counter_value obs "manual.path");
  Alcotest.(check (list string))
    "blind spots" [ "never.hit" ]
    (Obs.Coverage.blind_spots ~expected:[ "manual.path"; "never.hit" ] ())

(* The gate of paper section 4.2: after a standard validation workload,
   every expected coverage path must have fired at least once. This is the
   in-tree version of the check `bin/validate` runs before deployment. *)
let expected_coverage =
  [
    "cache.hit"; "cache.miss"; "cache.eviction"; "chunk.get.stale_locator";
    "index.get.memtable"; "index.get.run"; "index.run_written"; "index.compact";
    "reclaim.scan.valid_frame"; "reclaim.scan.invalid_frame"; "reclaim.evacuated";
    "reclaim.dropped"; "crash.torn_append"; "superblock.record";
    "superblock.free_claim_withheld"; "store.put.gc_fallback";
  ]

let test_blind_spot_gate () =
  Faults.disable_all ();
  Obs.Coverage.reset ();
  let config = Lfm.Harness.default_config in
  for seed = 0 to 79 do
    let _, outcome =
      Lfm.Harness.run_seed config ~profile:Lfm.Gen.Full ~bias:Lfm.Gen.default_bias ~length:60
        ~seed
    in
    match outcome with
    | Lfm.Harness.Passed -> ()
    | Lfm.Harness.Failed f -> Alcotest.failf "baseline failure: %a" Lfm.Harness.pp_failure f
  done;
  Alcotest.(check (list string))
    "no blind spots" []
    (Obs.Coverage.blind_spots ~expected:expected_coverage ())

(* The request plane has its own expected-coverage list: a short chaos
   campaign must exercise the retry, breaker, quorum-ack, read-repair and
   partial-write paths, or the fault-tolerance machinery has gone silent.
   This is the in-tree version of the gate `bin/validate --chaos` runs. *)
let fleet_expected_coverage =
  [
    "fleet.retry"; "fleet.breaker_open"; "fleet.quorum_ack"; "fleet.read_repair";
    "fleet.partial_write";
  ]

let test_fleet_blind_spot_gate () =
  Faults.disable_all ();
  Obs.Coverage.reset ();
  let summary = Experiments.Chaos.run ~campaigns:10 ~length:40 ~seed:0 () in
  Alcotest.(check int) "campaigns clean" summary.Experiments.Chaos.campaigns
    summary.Experiments.Chaos.clean;
  Alcotest.(check (list string))
    "no fleet blind spots" []
    (Obs.Coverage.blind_spots ~expected:fleet_expected_coverage ())

(* {2 Counterexamples carry the trace ring} *)

let test_counterexample_has_trace () =
  Faults.disable_all ();
  let r = Lfm.Detect.detect ~max_sequences:500 ~minimize:true ~seed:11 Faults.F4_disk_return_loses_shards in
  Alcotest.(check bool) "found" true r.Lfm.Detect.found;
  (match r.Lfm.Detect.failure with
  | None -> Alcotest.fail "no failure recorded"
  | Some f ->
    Alcotest.(check bool) "trace attached" true (f.Lfm.Harness.trace <> []);
    (* events are in order and the report renders them *)
    let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) f.Lfm.Harness.trace in
    Alcotest.(check (list int)) "ordered" (List.sort compare seqs) seqs;
    let rendered = Format.asprintf "%a" Lfm.Harness.pp_failure f in
    Alcotest.(check bool) "rendered in report" true (contains rendered "trailing trace"));
  (* the minimized counterexample replays to a failure whose report also
     carries the trace *)
  match r.Lfm.Detect.minimized_ops with
  | None -> Alcotest.fail "no minimized counterexample"
  | Some ops ->
    Faults.enable Faults.F4_disk_return_loses_shards;
    Fun.protect
      ~finally:(fun () -> Faults.disable_all ())
      (fun () ->
        match Lfm.Harness.run Lfm.Harness.default_config ops with
        | Lfm.Harness.Passed -> Alcotest.fail "minimized sequence no longer fails"
        | Lfm.Harness.Failed f ->
          let rendered = Format.asprintf "%a" Lfm.Harness.pp_failure f in
          Alcotest.(check bool) "minimized report has trace" true
            (contains rendered "trailing trace"))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "label scoping" `Quick test_label_scoping;
          Alcotest.test_case "instance scoping" `Quick test_instance_scoping;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "snapshot and reset" `Quick test_snapshot_and_reset;
          Alcotest.test_case "jsonl export" `Quick test_jsonl;
          Alcotest.test_case "json_float cases" `Quick test_json_float_cases;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled is no-op" `Quick test_tracing_disabled;
          Alcotest.test_case "pause and resume" `Quick test_set_tracing;
        ] );
      ( "parity",
        [
          Alcotest.test_case "iosched stats" `Quick test_iosched_counters;
          Alcotest.test_case "cache stats" `Quick test_cache_counters;
        ] );
      ( "stack",
        [
          Alcotest.test_case "one registry, all layers" `Quick test_store_unifies_layers;
          Alcotest.test_case "per-store registries" `Quick test_store_registries_are_private;
        ] );
      ( "merge",
        [
          Alcotest.test_case "counter atomic across domains" `Quick
            test_counter_atomic_across_domains;
          Alcotest.test_case "merge per-domain counters" `Quick
            test_merge_counters_from_domain_registries;
          Alcotest.test_case "gauge adopts last" `Quick test_merge_gauge_adopts_last;
          Alcotest.test_case "histogram bound mismatch" `Quick
            test_merge_histogram_bound_mismatch;
          Alcotest.test_case "merge per-domain histograms" `Quick
            test_merge_histograms_from_domains;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "facade" `Quick test_coverage_facade;
          Alcotest.test_case "blind-spot gate" `Slow test_blind_spot_gate;
          Alcotest.test_case "fleet blind-spot gate" `Slow test_fleet_blind_spot_gate;
        ] );
      ( "counterexamples",
        [ Alcotest.test_case "trace attached" `Slow test_counterexample_has_trace ] );
    ]
