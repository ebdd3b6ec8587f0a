type curve = {
  fault : Faults.t;
  trials : int;
  hits : int list;
  budgets : int list;
  probability : float list;
}

type report = {
  curves : curve list;
  seconds : float;
}

let default_faults =
  [ Faults.F1_reclaim_off_by_one; Faults.F7_soft_hard_pointer_mismatch;
    Faults.F2_cache_not_drained ]

let run ?(domains = 1) ?(faults = default_faults) ?(trials = 20) ?(max_sequences = 2_000)
    ?(budgets = [ 10; 30; 100; 300; 1_000; 2_000 ]) ?(seed = 52_000) () =
  let t0 = Util.Wallclock.now_s () in
  let curves =
    List.map
      (fun fault ->
        let hits =
          Lfm.Detect.series ~trials ~max_sequences ~seed (fun seed ->
              let r = Lfm.Detect.detect ~domains ~max_sequences ~minimize:false ~seed fault in
              if r.Lfm.Detect.found then Some r.Lfm.Detect.sequences else None)
        in
        let probability =
          List.map
            (fun budget ->
              float_of_int (List.length (List.filter (fun h -> h <= budget) hits))
              /. float_of_int trials)
            budgets
        in
        { fault; trials; hits; budgets; probability })
      faults
  in
  { curves; seconds = Util.Wallclock.now_s () -. t0 }

let print report =
  Printf.printf "E6: pay-as-you-go detection probability vs sequence budget\n";
  List.iter
    (fun c ->
      Printf.printf "#%d %s\n" (Faults.number c.fault) (Faults.description c.fault);
      List.iter2
        (fun budget p -> Printf.printf "  budget %5d: P(detect) = %.2f\n" budget p)
        c.budgets c.probability;
      match Lfm.Detect.median c.hits with
      | None -> Printf.printf "  (never detected within budget)\n"
      | Some median ->
        Printf.printf "  detected %d/%d trials; median sequences-to-detection: %d\n"
          (List.length c.hits) c.trials median)
    report.curves;
  Printf.printf "(%.1f s total)\n" report.seconds
