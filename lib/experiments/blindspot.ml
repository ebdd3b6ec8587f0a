type arm = {
  label : string;
  cache_pages : int;
  detected : bool;
  sequences : int;
  cache_misses : int;
  cache_hits : int;
  blind_spots : string list;
}

type report = {
  arms : arm list;
  seconds : float;
}

(* The coverage points this workload is expected to reach; [cache.miss]
   going dark is the section 8.3 blind spot. *)
let expected_coverage = [ "cache.hit"; "cache.miss"; "index.get.run"; "reclaim.evacuated" ]

(* The section 8.3 scenario concerns steady-state request traffic, so the
   workload keeps the store in service (no remove/return, whose recovery
   would empty the cache and force misses regardless of its size). *)
let strip_service_ops ops =
  List.map
    (fun op ->
      match op with
      | Lfm.Op.RemoveFromService | Lfm.Op.ReturnToService -> Lfm.Op.List
      | _ -> op)
    ops

let run_arm ~label ~cache_pages ~max_sequences ~seed =
  let store_config =
    {
      Store.Default.test_config with
      Store.Default.cache_pages;
      cache_write_allocate = true;
    }
  in
  let config = { Lfm.Harness.default_config with Lfm.Harness.store_config } in
  Faults.disable_all ();
  Faults.enable Faults.F17_cache_miss_path;
  Obs.Coverage.reset ();
  Fun.protect
    ~finally:(fun () -> Faults.disable_all ())
    (fun () ->
      let page_size = store_config.Store.Default.disk.Disk.page_size in
      let extent_count = store_config.Store.Default.disk.Disk.extent_count in
      let rec hunt i =
        if i >= max_sequences then (false, max_sequences)
        else begin
          let rng = Util.Rng.create (Int64.of_int (seed + i)) in
          let ops =
            strip_service_ops
              (Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Crash_free
                 ~page_size ~extent_count ~length:60)
          in
          match Lfm.Harness.run config ops with
          | Lfm.Harness.Failed _ -> (true, i + 1)
          | Lfm.Harness.Passed -> hunt (i + 1)
        end
      in
      let detected, sequences = hunt 0 in
      {
        label;
        cache_pages;
        detected;
        sequences;
        cache_misses = Obs.Coverage.count "cache.miss";
        cache_hits = Obs.Coverage.count "cache.hit";
        blind_spots = Obs.Coverage.blind_spots ~expected:expected_coverage ();
      })

let run ?(max_sequences = 600) ?(seed = 77_000) () =
  let t0 = Util.Wallclock.now_s () in
  let arms =
    [
      run_arm ~label:"oversized cache (1024 pages)" ~cache_pages:1024 ~max_sequences ~seed;
      run_arm ~label:"right-sized cache (8 pages)" ~cache_pages:8 ~max_sequences ~seed;
    ]
  in
  { arms; seconds = Util.Wallclock.now_s () -. t0 }

let print report =
  Printf.printf "E9: the missed cache-miss bug and coverage metrics (paper section 8.3)\n";
  Printf.printf "%-30s %-10s %-10s %-12s %-12s %s\n" "configuration" "detected" "sequences"
    "cache hits" "cache misses" "coverage blind spots";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun a ->
      Printf.printf "%-30s %-10s %-10d %-12d %-12d %s\n" a.label
        (if a.detected then "yes" else "NO")
        a.sequences a.cache_hits a.cache_misses
        (match a.blind_spots with [] -> "-" | l -> String.concat ", " l))
    report.arms;
  Printf.printf "%s\n" (String.make 100 '-');
  Printf.printf
    "The defect lives on the cache-miss path; the oversized configuration never reaches it,\n\
     and the coverage report points at the blind spot. (%.1f s)\n"
    report.seconds
