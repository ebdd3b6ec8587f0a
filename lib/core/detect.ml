open Util

type method_ =
  | Pbt of Gen.profile
  | Model_validation
  | Smc

let method_name = function
  | Pbt profile -> Printf.sprintf "property-based testing (%s)" (Gen.profile_name profile)
  | Model_validation -> "model-validation property test"
  | Smc -> "stateless model checking"

let method_for = function
  | Faults.F1_reclaim_off_by_one -> Pbt Gen.Crash_free
  | Faults.F2_cache_not_drained -> Pbt Gen.Crash_free
  | Faults.F3_shutdown_skips_metadata -> Pbt Gen.Crashing
  | Faults.F4_disk_return_loses_shards -> Pbt Gen.Crash_free
  | Faults.F5_reclaim_forgets_on_read_error -> Pbt Gen.Failing
  | Faults.F6_superblock_ownership_dep -> Pbt Gen.Crashing
  | Faults.F7_soft_hard_pointer_mismatch -> Pbt Gen.Crashing
  | Faults.F8_missing_pointer_dep -> Pbt Gen.Crashing
  | Faults.F9_model_crash_reconcile -> Pbt Gen.Crashing
  | Faults.F10_uuid_magic_collision -> Pbt Gen.Crashing
  | Faults.F11_locator_race -> Smc
  | Faults.F12_buffer_pool_deadlock -> Smc
  | Faults.F13_list_remove_race -> Smc
  | Faults.F14_compaction_reclaim_race -> Smc
  | Faults.F15_model_locator_reuse -> Model_validation
  | Faults.F16_bulk_create_remove_race -> Smc
  | Faults.F17_cache_miss_path -> Pbt Gen.Crash_free
  (* #18 and #19 live above the single-node stack this harness drives;
     their checkers are the fleet chaos campaign (bin/validate --chaos) and
     the Conc_shared harnesses. Mapped like the Smc faults: found = false
     with zero work. *)
  | Faults.F18_quorum_ack_volatile | Faults.F19_flush_clears_staging_early -> Smc

type result = {
  fault : Faults.t;
  found : bool;
  sequences : int;
  total_ops : int;
  fired : int;
  failure : Harness.failure option;
  original : Op.summary option;
  minimized : Op.summary option;
  minimized_ops : Op.t list option;
  min_stats : Minimize.stats option;
}

(* Fault-specific bias tuning: #10 needs the UUID/page-boundary corner
   case, so its runs raise the corresponding biases (the paper's
   "quantitative evidence" criterion for adopting a bias, section 4.2). *)
let bias_for fault =
  match fault with
  | Faults.F10_uuid_magic_collision ->
    { Gen.default_bias with Gen.uuid_magic = 0.5; page_size_values = 0.9 }
  | _ -> Gen.default_bias

let empty_result fault =
  {
    fault;
    found = false;
    sequences = 0;
    total_ops = 0;
    fired = 0;
    failure = None;
    original = None;
    minimized = None;
    minimized_ops = None;
    min_stats = None;
  }

let detect_pbt config ~domains ~length ~max_sequences ~minimize ~seed fault profile =
  let bias = bias_for fault in
  let config = { config with Harness.uuid_bias = bias.Gen.uuid_magic } in
  (* The hunt is a parallel early exit: the failing seed, and so the
     sequence count and counterexample, is the lowest one Par.first
     guarantees, identical for every domain count. Only [fired] can see
     speculative runs beyond it. *)
  let hit =
    Par.first ~domains ~start:seed ~count:max_sequences (fun s ->
        match Harness.run_seed config ~profile ~bias ~length ~seed:s with
        | ops, Harness.Failed failure -> Some (ops, failure)
        | _, Harness.Passed -> None)
  in
  (* Gen.sequence yields exactly [length] ops per seed. *)
  match hit with
  | None ->
    { (empty_result fault) with sequences = max_sequences; total_ops = max_sequences * length }
  | Some (failing_seed, (ops, failure)) ->
    let minimized_ops, min_stats =
      if minimize then begin
        (* Minimization replays sequentially — reproducibility over speed. *)
        let still_fails ops =
          match Harness.run config ops with
          | Harness.Failed _ -> true
          | Harness.Passed -> false
        in
        let m, stats = Minimize.minimize ~still_fails ops in
        (Some m, Some stats)
      end
      else (None, None)
    in
    let sequences = failing_seed - seed + 1 in
    {
      fault;
      found = true;
      sequences;
      total_ops = sequences * length;
      fired = Faults.fired fault;
      failure = Some failure;
      original = Some (Op.summarize ops);
      minimized = Option.map Op.summarize minimized_ops;
      minimized_ops;
      min_stats;
    }

(* Model validation for #15: the mock locator generator must never return
   a locator that is still live (the uniqueness assumption of section 3.2 /
   issue #15). *)
let detect_model_validation ~max_sequences ~seed fault =
  let rng = Rng.create (Int64.of_int seed) in
  let total_ops = ref 0 in
  let rec hunt i =
    if i >= max_sequences then
      { (empty_result fault) with sequences = max_sequences; total_ops = !total_ops }
    else begin
      let model = Model.Chunk_model.create () in
      let live = Hashtbl.create 32 in
      let steps = 5 + Rng.int rng 40 in
      let rec go step =
        if step = steps then None
        else begin
          incr total_ops;
          if Rng.chance rng 0.7 || Hashtbl.length live = 0 then begin
            let loc = Model.Chunk_model.mock_put model ~payload:"payload" in
            if Hashtbl.mem live loc then Some (step, loc)
            else begin
              Hashtbl.replace live loc ();
              go (step + 1)
            end
          end
          else begin
            (* drop a random live locator *)
            let locs = Util.Tbl.fold_sorted (fun l () acc -> l :: acc) live [] in
            let loc = Rng.pick_list rng locs in
            Model.Chunk_model.drop model ~locator:loc;
            Hashtbl.remove live loc;
            go (step + 1)
          end
        end
      in
      match go 0 with
      | None -> hunt (i + 1)
      | Some (step, loc) ->
        {
          (empty_result fault) with
          found = true;
          sequences = i + 1;
          total_ops = !total_ops;
          fired = Faults.fired fault;
          failure =
            Some
              {
                Harness.step;
                op = Op.List;
                kind =
                  Harness.Unexpected_error
                    (Format.asprintf "mock re-used live locator %a" Chunk.Locator.pp loc);
                trace = [];
              };
        }
    end
  in
  hunt 0

let detect ?(config = Harness.default_config) ?(domains = 1) ?(length = 60)
    ?(max_sequences = 10_000) ?(minimize = true) ~seed fault =
  Faults.reset_counters ();
  Faults.only fault (fun () ->
      match method_for fault with
      | Pbt profile ->
        detect_pbt config ~domains ~length ~max_sequences ~minimize ~seed fault profile
      | Model_validation ->
        (* Single shared rng stream across sequences: parallelizing would
           change which sequences get generated, so this hunt stays
           sequential regardless of [domains]. *)
        detect_model_validation ~max_sequences ~seed fault
      | Smc -> empty_result fault)

let hunt ?domains fault ~seed ~count task =
  Faults.only fault (fun () ->
      Par.first ?domains ~start:seed ~count task
      |> Option.map (fun (hit, x) -> (hit - seed + 1, x)))

let series ~trials ~max_sequences ~seed f =
  List.init trials (fun k -> seed + (k * (max_sequences + 1)))
  |> List.filter_map f |> List.sort compare

let median = function [] -> None | hits -> Some (List.nth hits (List.length hits / 2))
