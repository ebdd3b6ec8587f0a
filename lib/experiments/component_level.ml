type row = {
  fault : Faults.t;
  level : string;
  detected : int;
  trials : int;
  median_sequences : int option;
}

type report = {
  rows : row list;
  component_seqs_per_sec : float;
  store_seqs_per_sec : float;
  seconds : float;
}

let faults = [ Faults.F1_reclaim_off_by_one; Faults.F5_reclaim_forgets_on_read_error ]

let run ?(domains = 1) ?(trials = 10) ?(max_sequences = 2_000) ?(seed = 64_000) () =
  let t0 = Util.Wallclock.now_s () in
  let row fault level hunt =
    let hits = Lfm.Detect.series ~trials ~max_sequences ~seed hunt in
    { fault; level; detected = List.length hits; trials; median_sequences = Lfm.Detect.median hits }
  in
  let component fault seed =
    Lfm.Detect.hunt ~domains fault ~seed ~count:max_sequences (fun s ->
        match Lfm.Chunk_harness.run ~seed:s ~length:40 with
        | _, Lfm.Chunk_harness.Failed _ -> Some ()
        | _, Lfm.Chunk_harness.Passed -> None)
    |> Option.map fst
  in
  let end_to_end fault seed =
    let r = Lfm.Detect.detect ~domains ~max_sequences ~minimize:false ~seed fault in
    if r.Lfm.Detect.found then Some r.Lfm.Detect.sequences else None
  in
  let rows =
    List.concat_map
      (fun fault ->
        [ row fault "component" (component fault); row fault "end-to-end" (end_to_end fault) ])
      faults
  in
  (* Throughputs on the honest code. *)
  Faults.disable_all ();
  let t1 = Util.Wallclock.now_s () in
  for seed = 0 to 299 do
    ignore (Lfm.Chunk_harness.run ~seed ~length:40)
  done;
  let t2 = Util.Wallclock.now_s () in
  for i = 0 to 299 do
    ignore
      (Lfm.Harness.run_seed Lfm.Harness.default_config ~profile:Lfm.Gen.Crash_free
         ~bias:Lfm.Gen.default_bias ~length:40 ~seed:(700_000 + i))
  done;
  let t3 = Util.Wallclock.now_s () in
  {
    rows;
    component_seqs_per_sec = 300.0 /. (t2 -. t1);
    store_seqs_per_sec = 300.0 /. (t3 -. t2);
    seconds = Util.Wallclock.now_s () -. t0;
  }

let print report =
  Printf.printf "E10: component-level vs end-to-end checking (paper section 8.4)\n";
  Printf.printf "%-6s %-12s %-10s %s\n" "fault" "level" "detected" "median seqs-to-detect";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun r ->
      Printf.printf "#%-5d %-12s %d/%-8d %s\n" (Faults.number r.fault) r.level r.detected
        r.trials
        (match r.median_sequences with Some m -> string_of_int m | None -> "-"))
    report.rows;
  Printf.printf "%s\n" (String.make 56 '-');
  Printf.printf "throughput: component %.0f seqs/s, end-to-end %.0f seqs/s\n"
    report.component_seqs_per_sec report.store_seqs_per_sec;
  Printf.printf "(%.1f s total)\n" report.seconds
