(* Seed one of the paper's Figure 5 defects and watch the checkers find
   and minimize it — the experience reports of sections 5 and 6.

   Run with: dune exec examples/bug_hunt.exe            (defaults to issue #3)
             dune exec examples/bug_hunt.exe -- 7       (pick an issue)   *)

let () =
  let n =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let fault =
    match Faults.of_number n with
    | Some f -> f
    | None -> failwith "issue number must be 1..16"
  in
  Printf.printf "Hunting issue #%d: %s — %s\n" n (Faults.component fault)
    (Faults.description fault);
  Printf.printf "checker: %s\n\n" (Lfm.Detect.method_name (Lfm.Detect.method_for fault));
  match Lfm.Detect.method_for fault with
  | Lfm.Detect.Smc ->
    let outcome =
      Conc.Conc_detect.detect (Smc.Dfs { max_schedules = 200_000 }) fault
    in
    (match outcome.Smc.violation with
    | Some v ->
      Format.printf "DETECTED: %a@." Smc.pp_violation v;
      Format.printf "replaying the schedule reproduces it: %b@."
        (match Conc.Conc_detect.harness fault with
        | Some h -> Faults.only fault (fun () -> Smc.replay h v.Smc.schedule <> None)
        | None -> false)
    | None -> Format.printf "not found in %d schedules@." outcome.Smc.schedules_run)
  | _ -> (
    let budget = if fault = Faults.F10_uuid_magic_collision then 60_000 else 5_000 in
    let r = Lfm.Detect.detect ~max_sequences:budget ~minimize:true ~seed:4242 fault in
    if not r.Lfm.Detect.found then
      Printf.printf "not found within %d sequences — try a bigger budget\n" r.Lfm.Detect.sequences
    else begin
      Printf.printf "DETECTED after %d random sequences (%d operations total)\n"
        r.Lfm.Detect.sequences r.Lfm.Detect.total_ops;
      (match r.Lfm.Detect.failure with
      | Some f -> Format.printf "failure: %a@." Lfm.Harness.pp_failure f
      | None -> ());
      match r.Lfm.Detect.original, r.Lfm.Detect.minimized, r.Lfm.Detect.minimized_ops with
      | Some o, Some m, Some ops ->
        Format.printf "@.counterexample: %a@.minimized to:   %a@.@." Lfm.Op.pp_summary o
          Lfm.Op.pp_summary m;
        Printf.printf "the minimized sequence (rerun it as a unit test):\n";
        List.iteri (fun i op -> Format.printf "  %2d: %a@." i Lfm.Op.pp op) ops
      | _ -> ()
    end)
