type mode = Coarse | Block_sampled | Block_exhaustive

let mode_name = function
  | Coarse -> "coarse"
  | Block_sampled -> "block-sampled"
  | Block_exhaustive -> "block-exhaustive"

type detection = {
  fault : Faults.t;
  mode : mode;
  detected : bool;
  sequences : int;
}

type report = {
  detections : detection list;
  throughput : (mode * float) list;
  exhaustive_states : int;
  seconds : float;
}

let config = Lfm.Harness.default_config

(* Rewrite the reboot operations of a generated sequence to the mode's
   crash-state granularity. *)
let transform mode ops =
  List.map
    (fun op ->
      match op, mode with
      | Lfm.Op.DirtyReboot r, Coarse ->
        Lfm.Op.DirtyReboot
          {
            r with
            Lfm.Op.split_pages = false;
            persist_probability = (if r.Lfm.Op.persist_probability < 0.5 then 0.0 else 1.0);
          }
      | Lfm.Op.DirtyReboot r, (Block_sampled | Block_exhaustive) ->
        Lfm.Op.DirtyReboot { r with Lfm.Op.split_pages = true }
      | _ -> op)
    ops

let config_for mode acc =
  match mode with
  | Coarse | Block_sampled -> config
  | Block_exhaustive ->
    {
      config with
      Lfm.Harness.pre_crash_hook = Some (Lfm.Crash_enum.hook ~max_states:2_000 ~acc);
    }

let empty_enum_stats =
  { Lfm.Crash_enum.states = 0; truncated = false; violations = 0; first_violation = None }

let sequence ~seed ~length =
  let rng = Util.Rng.create (Int64.of_int seed) in
  Lfm.Gen.sequence ~rng ~bias:Lfm.Gen.default_bias ~profile:Lfm.Gen.Crashing
    ~page_size:config.Lfm.Harness.store_config.Store.Default.disk.Disk.page_size
    ~extent_count:config.Lfm.Harness.store_config.Store.Default.disk.Disk.extent_count
    ~length

(* Each task builds its own crash-enumeration accumulator, so the hunt
   shards across domains with the same report as the sequential one. *)
let hunt ~domains mode fault ~max_sequences ~seed =
  let hit =
    Lfm.Detect.hunt ~domains fault ~seed ~count:max_sequences (fun s ->
        let acc = ref empty_enum_stats in
        let ops = transform mode (sequence ~seed:s ~length:60) in
        match Lfm.Harness.run (config_for mode acc) ops with
        | Lfm.Harness.Failed _ -> Some ()
        | Lfm.Harness.Passed -> None)
  in
  match hit with
  | Some (sequences, ()) -> { fault; mode; detected = true; sequences }
  | None -> { fault; mode; detected = false; sequences = max_sequences }

let throughput mode ~sequences ~seed =
  Faults.disable_all ();
  let acc = ref empty_enum_stats in
  let cfg = config_for mode acc in
  let t0 = Util.Wallclock.now_s () in
  for i = 0 to sequences - 1 do
    let ops = transform mode (sequence ~seed:(seed + i) ~length:60) in
    ignore (Lfm.Harness.run cfg ops)
  done;
  (float_of_int sequences /. (Util.Wallclock.now_s () -. t0), !acc.Lfm.Crash_enum.states)

let default_faults =
  [
    Faults.F3_shutdown_skips_metadata;
    Faults.F6_superblock_ownership_dep;
    Faults.F7_soft_hard_pointer_mismatch;
    Faults.F8_missing_pointer_dep;
    Faults.F9_model_crash_reconcile;
  ]

let run ?(domains = 1) ?(faults = default_faults) ?(max_sequences = 3_000)
    ?(throughput_sequences = 400) ?(seed = 1234) () =
  let t0 = Util.Wallclock.now_s () in
  let detections =
    List.concat_map
      (fun fault ->
        [
          hunt ~domains Coarse fault ~max_sequences ~seed;
          hunt ~domains Block_sampled fault ~max_sequences ~seed;
          (* exhaustive mode is orders of magnitude slower: cap its budget *)
          hunt ~domains Block_exhaustive fault ~max_sequences:(min 200 max_sequences) ~seed;
        ])
      faults
  in
  let coarse, _ = throughput Coarse ~sequences:throughput_sequences ~seed in
  let sampled, _ = throughput Block_sampled ~sequences:throughput_sequences ~seed in
  let exhaustive, exhaustive_states =
    throughput Block_exhaustive ~sequences:(max 10 (throughput_sequences / 10)) ~seed
  in
  {
    detections;
    throughput = [ (Coarse, coarse); (Block_sampled, sampled); (Block_exhaustive, exhaustive) ];
    exhaustive_states;
    seconds = Util.Wallclock.now_s () -. t0;
  }

let print report =
  Printf.printf "E4: coarse vs block-level crash states (paper section 5)\n";
  Printf.printf "%-6s %-12s %-10s %s\n" "fault" "mode" "detected" "sequences";
  Printf.printf "%s\n" (String.make 48 '-');
  List.iter
    (fun d ->
      Printf.printf "#%-5d %-12s %-10s %d\n" (Faults.number d.fault) (mode_name d.mode)
        (if d.detected then "yes" else "no")
        d.sequences)
    report.detections;
  Printf.printf "%s\n" (String.make 48 '-');
  (match report.throughput with
  | [ (_, coarse); (_, sampled); (_, exhaustive) ] ->
    Printf.printf
      "throughput: coarse %.0f seqs/s, block-sampled %.0f seqs/s, block-exhaustive %.1f \
       seqs/s (%.0fx slower; %d crash states enumerated)\n"
      coarse sampled exhaustive (sampled /. exhaustive) report.exhaustive_states
  | _ -> ());
  Printf.printf "(%.1f s total)\n" report.seconds
