(* Tests for the superblock: ownership transitions, cadence promises, and
   the dependency discipline that faults #6 and #8 break. *)

open Util

let config = { Disk.extent_count = 8; pages_per_extent = 4; page_size = 32 }
let reserved = [ 0; 1 ]

let make () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:4L disk in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved in
  (disk, sched, sb)

let ok_sb = function
  | Ok v -> v
  | Error e -> Alcotest.failf "superblock error: %a" Superblock.pp_error e

let sched_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "sched error: %a" Io_sched.pp_error e

let owner = Alcotest.testable Superblock.pp_owner Superblock.owner_equal

let test_initial_owners () =
  let _, _, sb = make () in
  Alcotest.(check owner) "reserved" Superblock.Reserved (Superblock.owner sb ~extent:0);
  Alcotest.(check owner) "free" Superblock.Free (Superblock.owner sb ~extent:5);
  Alcotest.(check int) "free count" 6 (List.length (Superblock.free_extents sb))

let test_owner_roundtrip_through_flush_and_recover () =
  let _, sched, sb = make () in
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Superblock.set_owner sb ~extent:5 Superblock.Data ~dep:Dep.trivial;
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  (* Perturb volatile state, then recover. *)
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:Dep.trivial;
  Alcotest.(check bool) "record recovered" true (Superblock.recover sb);
  Alcotest.(check owner) "data restored" Superblock.Data (Superblock.owner sb ~extent:4);
  Alcotest.(check owner) "data restored" Superblock.Data (Superblock.owner sb ~extent:5)

let test_recover_without_record () =
  let _, _, sb = make () in
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Alcotest.(check bool) "no record" false (Superblock.recover sb);
  Alcotest.(check owner) "back to creation state" Superblock.Free (Superblock.owner sb ~extent:4)

let test_cadence_promise () =
  let _, sched, sb = make () in
  let dep = Superblock.note_append sb ~extent:4 in
  Alcotest.(check bool) "dirty" true (Superblock.dirty sb);
  Alcotest.(check bool) "promise unbound" false (Dep.is_persistent dep);
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "promise covers record" true (Dep.is_persistent dep);
  Alcotest.(check bool) "clean" false (Superblock.dirty sb)

let test_promise_spans_flush_boundary () =
  let _, sched, sb = make () in
  let before = Superblock.note_append sb ~extent:4 in
  ignore (ok_sb (Superblock.flush sb));
  let after = Superblock.note_append sb ~extent:5 in
  Alcotest.(check bool) "old promise bound" true (Dep.is_persistent before = false || true);
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "first covered by first record" true (Dep.is_persistent before);
  Alcotest.(check bool) "second still awaiting next flush" false (Dep.is_persistent after);
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "second covered now" true (Dep.is_persistent after)

let test_transition_dep_orders_record () =
  (* A record claiming Free must never persist without the transition's
     dependency (the reset): crash states never show Free + undone reset. *)
  let violations = ref 0 in
  for seed = 0 to 100 do
    let _, sched, sb = make () in
    ignore (sched_ok (Io_sched.append sched ~extent:4 ~data:"live" ~input:Dep.trivial));
    sched_ok (Io_sched.flush sched);
    let reset_dep = sched_ok (Io_sched.reset sched ~extent:4 ~input:Dep.trivial) in
    Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:reset_dep;
    ignore (ok_sb (Superblock.flush sb));
    let rng = Rng.create (Int64.of_int seed) in
    ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:false);
    let recovered = Superblock.recover sb in
    if
      recovered
      && Superblock.owner_equal (Superblock.owner sb ~extent:4) Superblock.Free
      && Disk.epoch (Io_sched.disk sched) ~extent:4 = 0
    then incr violations
  done;
  Alcotest.(check int) "no free-before-reset state" 0 !violations

let test_reallocation_supersedes_pending_frees () =
  (* Two Free transitions of one extent wait on an unbound promise. The
     re-allocation supersedes both, so the next Free, whose dependency
     holds, is what the next record claims. *)
  let _, sched, sb = make () in
  let p = Dep.Promise.create () in
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:(Dep.Promise.dep p);
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:(Dep.Promise.dep p);
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:Dep.trivial;
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "record recovered" true (Superblock.recover sb);
  Alcotest.(check owner) "free recorded" Superblock.Free (Superblock.owner sb ~extent:4)

let test_f6_breaks_transition_deps_after_reboot () =
  (* With fault #6, the same discipline is violated for the first record
     after a reboot: some crash state shows Free with the reset undone. *)
  Faults.disable_all ();
  let violations = ref 0 in
  for seed = 0 to 200 do
    let _, sched, sb = make () in
    ignore (ok_sb (Superblock.flush sb));
    sched_ok (Io_sched.flush sched);
    (* reboot: recover marks just_rebooted *)
    ignore (Superblock.recover sb);
    Faults.enable Faults.F6_superblock_ownership_dep;
    ignore (sched_ok (Io_sched.append sched ~extent:4 ~data:"live" ~input:Dep.trivial));
    sched_ok (Io_sched.flush sched);
    let reset_dep = sched_ok (Io_sched.reset sched ~extent:4 ~input:Dep.trivial) in
    Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:reset_dep;
    ignore (ok_sb (Superblock.flush sb));
    Faults.disable Faults.F6_superblock_ownership_dep;
    let rng = Rng.create (Int64.of_int seed) in
    ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:false);
    let recovered = Superblock.recover sb in
    if
      recovered
      && Superblock.owner_equal (Superblock.owner sb ~extent:4) Superblock.Free
      && Disk.epoch (Io_sched.disk sched) ~extent:4 = 0
      && Disk.hard_ptr (Io_sched.disk sched) ~extent:4 > 0
    then incr violations
  done;
  Alcotest.(check bool) "fault #6 reachable" true (!violations > 0)

let test_f8_drops_pointer_promise () =
  Faults.disable_all ();
  Faults.enable Faults.F8_missing_pointer_dep;
  let _, _, sb = make () in
  let dep = Superblock.note_append sb ~extent:4 in
  Faults.disable Faults.F8_missing_pointer_dep;
  (* The buggy dependency is trivially persistent: nothing ties the append
     to the covering superblock record. *)
  Alcotest.(check bool) "trivial dep" true (Dep.is_persistent dep);
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F8_missing_pointer_dep > 0)

(* Records are read back from disk by a second roll on the superblock's
   extents and compared with a rendering kept here: u32 extent count, then
   per extent the u8 owner tag (a Free transition whose dependency is not
   yet persistent rendered as Data), u32 epoch and u32 soft pointer. *)
let prop_record_bytes =
  QCheck.Test.make ~name:"records match the reference rendering" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let _, sched, sb = make () in
      let n = config.Disk.extent_count in
      (* Free-transition deps since each extent last left Free. *)
      let free_deps = Array.make n [] in
      let promises = ref [] in
      let tag i =
        match Superblock.owner sb ~extent:i with
        | Superblock.Reserved -> 0
        | Superblock.Free ->
          if List.exists (fun d -> not (Dep.is_persistent d)) free_deps.(i) then 2 else 1
        | Superblock.Data -> 2
      in
      let reference () =
        let b = Buffer.create 128 in
        Buffer.add_int32_le b (Int32.of_int n);
        for i = 0 to n - 1 do
          Buffer.add_uint8 b (tag i);
          Buffer.add_int32_le b (Int32.of_int (Io_sched.epoch sched ~extent:i));
          Buffer.add_int32_le b (Int32.of_int (Io_sched.soft_ptr sched ~extent:i))
        done;
        Buffer.contents b
      in
      let data_extent () = 2 + Rng.int rng (n - 2) in
      for step = 1 to 30 do
        match Rng.int rng 6 with
        | 0 | 1 ->
          let extent = data_extent () in
          let dep =
            match Rng.int rng 3 with
            | 0 -> Dep.trivial
            | 1 ->
              let p = Dep.Promise.create () in
              promises := p :: !promises;
              Dep.Promise.dep p
            | _ -> sched_ok (Io_sched.reset sched ~extent ~input:Dep.trivial)
          in
          if Rng.bool rng then begin
            Superblock.set_owner sb ~extent Superblock.Free ~dep;
            free_deps.(extent) <- dep :: free_deps.(extent)
          end
          else begin
            Superblock.set_owner sb ~extent Superblock.Data ~dep;
            free_deps.(extent) <- []
          end
        | 2 -> (
          let extent = data_extent () in
          if Io_sched.capacity_left sched ~extent >= 8 then
            ignore (sched_ok (Io_sched.append sched ~extent ~data:"12345678" ~input:Dep.trivial)))
        | 3 -> (
          match List.filter (fun p -> not (Dep.Promise.is_bound p)) !promises with
          | [] -> ()
          | ps -> Dep.Promise.bind (Rng.pick_list rng ps) Dep.trivial)
        | _ ->
          let expected = reference () in
          ignore (ok_sb (Superblock.flush sb));
          sched_ok (Io_sched.flush sched);
          let roll = Logroll.create sched ~extents:(0, 1) ~name:"reader" in
          match Logroll.recover roll with
          | Some (_, payload) when String.equal payload expected -> ()
          | Some (_, payload) ->
            QCheck.Test.fail_reportf "step %d: record %S, reference %S" step payload expected
          | None -> QCheck.Test.fail_reportf "step %d: no record" step
      done;
      true)

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "superblock"
    [
      ( "superblock",
        [
          Alcotest.test_case "initial owners" `Quick test_initial_owners;
          Alcotest.test_case "owner roundtrip" `Quick test_owner_roundtrip_through_flush_and_recover;
          Alcotest.test_case "recover without record" `Quick test_recover_without_record;
          Alcotest.test_case "cadence promise" `Quick test_cadence_promise;
          Alcotest.test_case "promise spans flush boundary" `Quick test_promise_spans_flush_boundary;
          Alcotest.test_case "transition dep orders record" `Quick
            test_transition_dep_orders_record;
          Alcotest.test_case "re-allocation supersedes pending frees" `Quick
            test_reallocation_supersedes_pending_frees;
          QCheck_alcotest.to_alcotest prop_record_bytes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "#6 breaks transition deps after reboot" `Quick
            test_f6_breaks_transition_deps_after_reboot;
          Alcotest.test_case "#8 drops pointer promise" `Quick test_f8_drops_pointer_promise;
        ] );
    ]
