type strategy_result = {
  strategy : string;
  fault : Faults.t;
  detected : int;
  trials : int;
  median_schedules : int option;
  schedules_per_sec : float;
}

type verification = {
  fault : Faults.t;
  schedules : int;
  exhausted : bool;
  seconds : float;
}

type report = {
  results : strategy_result list;
  verifications : verification list;
  seconds : float;
}

let strategies ~budget =
  [
    ("DFS", fun _seed -> Smc.Dfs { max_schedules = budget });
    ("Random", fun seed -> Smc.Random_walk { seed; schedules = budget });
    ("PCT d=3", fun seed -> Smc.Pct { seed; schedules = budget; depth = 3 });
  ]

(* An exploration draws every schedule from its one seed, so each trial's
   seed block is a single seed ([~max_sequences:0]). *)
let measure ~trials ~seed fault (name, mk) =
  let schedules_total = ref 0 in
  let t0 = Util.Wallclock.now_s () in
  let hits =
    Lfm.Detect.series ~trials ~max_sequences:0 ~seed (fun seed ->
        let outcome = Conc.Conc_detect.detect (mk seed) fault in
        schedules_total := !schedules_total + outcome.Smc.schedules_run;
        Option.map (fun _ -> outcome.Smc.schedules_run) outcome.Smc.violation)
  in
  let dt = Util.Wallclock.now_s () -. t0 in
  {
    strategy = name;
    fault;
    detected = List.length hits;
    trials;
    median_schedules = Lfm.Detect.median hits;
    schedules_per_sec = float_of_int !schedules_total /. dt;
  }

let verify ~budget fault =
  let t0 = Util.Wallclock.now_s () in
  let outcome = Conc.Conc_detect.check_correct (Smc.Dfs { max_schedules = budget }) fault in
  assert (outcome.Smc.violation = None);
  {
    fault;
    schedules = outcome.Smc.schedules_run;
    exhausted = outcome.Smc.exhausted;
    seconds = Util.Wallclock.now_s () -. t0;
  }

let run ?(trials = 5) ?(schedule_budget = 100_000) ?(seed = 3_000) () =
  let t0 = Util.Wallclock.now_s () in
  let hunt_faults = [ Faults.F14_compaction_reclaim_race; Faults.F11_locator_race ] in
  let results =
    List.concat_map
      (fun fault ->
        List.map (measure ~trials ~seed fault) (strategies ~budget:schedule_budget))
      hunt_faults
  in
  let verifications =
    List.map (verify ~budget:schedule_budget)
      [
        Faults.F11_locator_race;
        Faults.F12_buffer_pool_deadlock;
        Faults.F13_list_remove_race;
        Faults.F16_bulk_create_remove_race;
      ]
  in
  { results; verifications; seconds = Util.Wallclock.now_s () -. t0 }

let print report =
  Printf.printf "E8: stateless model checking strategies (Loom-vs-Shuttle trade-off, section 6)\n";
  Printf.printf "%-10s %-6s %-12s %-20s %s\n" "strategy" "fault" "detected" "median schedules"
    "schedules/s";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun r ->
      Printf.printf "%-10s #%-5d %d/%-10d %-20s %.0f\n" r.strategy (Faults.number r.fault)
        r.detected r.trials
        (match r.median_schedules with Some m -> string_of_int m | None -> "-")
        r.schedules_per_sec)
    report.results;
  Printf.printf "\nExhaustive verification of the corrected code (DFS):\n";
  List.iter
    (fun v ->
      Printf.printf "  #%-3d %d schedules, %s, %.2f s\n" (Faults.number v.fault) v.schedules
        (if v.exhausted then "exhaustive" else "budget reached")
        v.seconds)
    report.verifications;
  Printf.printf "(%.1f s total)\n" report.seconds
