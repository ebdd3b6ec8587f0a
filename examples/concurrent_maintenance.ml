(* The paper's Fig. 4 harness, live: read-after-write consistency of the
   index under concurrent chunk reclamation and LSM compaction, checked by
   exhaustive DFS (the Loom analogue) and randomized PCT (the Shuttle
   analogue).

   Run with: dune exec examples/concurrent_maintenance.exe *)

let fig4 () =
  let index = Conc.Conc_index.create () in
  Conc.Conc_index.put index ~key:1 ~value:10;
  Conc.Conc_index.put index ~key:2 ~value:20;
  Conc.Conc_index.compact index;
  Smc.join
    [
      (fun () -> Conc.Conc_index.reclaim index ~extent:0);
      (fun () -> Conc.Conc_index.compact index);
      (fun () ->
        Conc.Conc_index.put index ~key:1 ~value:11;
        match Conc.Conc_index.get index ~key:1 with
        | Some 11 -> ()
        | Some v -> failwith (Printf.sprintf "read-after-write broken: got %d" v)
        | None -> failwith "read-after-write broken: entry lost");
    ]

let show label outcome = Format.printf "%-34s %a@." label Smc.pp_outcome outcome

let () =
  print_endline "Fig. 4: index read-after-write under concurrent maintenance\n";
  print_endline "-- correct implementation (compaction locks the extent) --";
  Faults.disable_all ();
  show "DFS (sound, Loom-style):" (Smc.explore (Smc.Dfs { max_schedules = 60_000 }) fig4);
  show "PCT (randomized, Shuttle-style):"
    (Smc.explore (Smc.Pct { seed = 1; schedules = 5_000; depth = 3 }) fig4);

  print_endline "\n-- issue #14 injected (no extent lock) --";
  Faults.enable Faults.F14_compaction_reclaim_race;
  show "DFS:" (Smc.explore (Smc.Dfs { max_schedules = 60_000 }) fig4);
  show "PCT:" (Smc.explore (Smc.Pct { seed = 1; schedules = 50_000; depth = 3 }) fig4);
  Faults.disable_all ();
  print_endline "\nThe interleaving matches the paper's narrative: compaction writes the";
  print_endline "new chunk, reclamation preempts it, finds the chunk unreferenced by the";
  print_endline "metadata, drops it and resets the extent - losing the flushed entries."
