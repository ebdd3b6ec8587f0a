type arm = {
  label : string;
  bias : Lfm.Gen.bias;
  fault : Faults.t;
  detected : int;
  trials : int;
  median_sequences : int option;
}

type report = {
  arms : arm list;
  hit_rate_biased : float;
  hit_rate_unbiased : float;
  seconds : float;
}

let config = Lfm.Harness.default_config

(* A detection hunt with an explicit bias (bypassing Detect's per-fault
   tuning, which is the very thing being ablated). *)
let hunt ~domains ~bias ~profile ~max_sequences fault seed =
  let config = { config with Lfm.Harness.uuid_bias = bias.Lfm.Gen.uuid_magic } in
  Lfm.Detect.hunt ~domains fault ~seed ~count:max_sequences (fun s ->
      match Lfm.Harness.run_seed config ~profile ~bias ~length:60 ~seed:s with
      | _, Lfm.Harness.Failed _ -> Some ()
      | _, Lfm.Harness.Passed -> None)
  |> Option.map fst

(* Coverage proxy: how often does a generated Get hit a previously-Put
   key? Without the bias the successful-Get path is barely exercised. *)
let get_hit_rate bias ~seed =
  let rng = Util.Rng.create (Int64.of_int seed) in
  let hits = ref 0 and gets = ref 0 in
  for _ = 1 to 50 do
    let ops =
      Lfm.Gen.sequence ~rng ~bias ~profile:Lfm.Gen.Crash_free ~page_size:64 ~extent_count:12
        ~length:60
    in
    let put = Hashtbl.create 16 in
    List.iter
      (fun op ->
        match op with
        | Lfm.Op.Put (k, _) -> Hashtbl.replace put k ()
        | Lfm.Op.Get k ->
          incr gets;
          if Hashtbl.mem put k then incr hits
        | _ -> ())
      ops
  done;
  float_of_int !hits /. float_of_int (max 1 !gets)

let run ?(domains = 1) ?(max_sequences = 4_000) ?(trials = 8) ?(seed = 90_000) () =
  let t0 = Util.Wallclock.now_s () in
  let mk label bias profile fault =
    let hits =
      Lfm.Detect.series ~trials ~max_sequences ~seed
        (hunt ~domains ~bias ~profile ~max_sequences fault)
    in
    {
      label;
      bias;
      fault;
      detected = List.length hits;
      trials;
      median_sequences = Lfm.Detect.median hits;
    }
  in
  let page_on = { Lfm.Gen.default_bias with Lfm.Gen.page_size_values = 0.9 } in
  let page_off = { Lfm.Gen.default_bias with Lfm.Gen.page_size_values = 0.0 } in
  let uuid_on = { Lfm.Gen.default_bias with Lfm.Gen.uuid_magic = 0.5; page_size_values = 0.9 } in
  let uuid_off = { Lfm.Gen.default_bias with Lfm.Gen.uuid_magic = 0.0; page_size_values = 0.9 } in
  let arms =
    [
      mk "page-size bias ON " page_on Lfm.Gen.Crash_free Faults.F1_reclaim_off_by_one;
      mk "page-size bias OFF" page_off Lfm.Gen.Crash_free Faults.F1_reclaim_off_by_one;
      mk "uuid bias ON      " uuid_on Lfm.Gen.Crashing Faults.F10_uuid_magic_collision;
      mk "uuid bias OFF     " uuid_off Lfm.Gen.Crashing Faults.F10_uuid_magic_collision;
    ]
  in
  {
    arms;
    hit_rate_biased = get_hit_rate Lfm.Gen.default_bias ~seed;
    hit_rate_unbiased = get_hit_rate Lfm.Gen.unbiased ~seed;
    seconds = Util.Wallclock.now_s () -. t0;
  }

let print report =
  Printf.printf "E7: argument-bias ablation (paper section 4.2)\n";
  Printf.printf "%-20s %-6s %-10s %s\n" "arm" "fault" "detected" "median seqs-to-detect";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun a ->
      Printf.printf "%-20s #%-5d %d/%-8d %s\n" a.label (Faults.number a.fault) a.detected
        a.trials
        (match a.median_sequences with Some m -> string_of_int m | None -> "-"))
    report.arms;
  Printf.printf "%s\n" (String.make 52 '-');
  Printf.printf "successful-Get coverage: %.0f%% with key-reuse bias, %.0f%% without\n"
    (100.0 *. report.hit_rate_biased)
    (100.0 *. report.hit_rate_unbiased);
  Printf.printf "(%.1f s total)\n" report.seconds
