(* Tests for the sanitizer suite: the vector-clock race detector,
   lock-order analysis, and the page-lifecycle shadow —
   plus the acceptance harnesses: a silent write/write race caught without
   manifesting, and a read of a recycled extent reported at the faulting
   read. *)

open Util

let vc_only = { Sanitize.races = true; lock_order = false }
let order_only = { Sanitize.races = false; lock_order = true }

(* {2 Vector-clock race detection} *)

(* Two threads store the same value into an unsynchronized cell: every
   interleaving produces the same final state, so no assertion can catch
   it — the race never manifests. The detector must flag it anyway. *)
let silent_ww_race () =
  let c = Smc.Cell.make 0 in
  let done_ = Smc.Cell.make 0 in
  let body () =
    Smc.Cell.set c 1;
    ignore (Smc.Cell.update done_ (fun d -> d + 1))
  in
  Smc.spawn body;
  Smc.spawn body;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
  if Smc.Cell.get c <> 1 then failwith "impossible: both orders store 1"

let test_silent_ww_race_caught () =
  (* Without the sanitizer the body is violation-free by construction. *)
  let plain = Smc.explore (Smc.Dfs { max_schedules = 10_000 }) silent_ww_race in
  Alcotest.(check bool) "no manifest violation" true (plain.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true plain.Smc.exhausted;
  (* With it, the write/write pair is flagged — on the very first schedule,
     since no interleaving orders the two stores. *)
  let o = Smc.explore ~sanitize:vc_only (Smc.Dfs { max_schedules = 10_000 }) silent_ww_race in
  match o.Smc.violation with
  | Some { kind = Smc.Race { access = "write/write"; tids; loc }; schedule; _ } ->
    Alcotest.(check int) "first schedule" 1 o.Smc.schedules_run;
    Alcotest.(check bool) "distinct threads" true (fst tids <> snd tids);
    (* The recorded schedule replays to the same race at the same cell. *)
    (match Smc.replay ~sanitize:vc_only silent_ww_race schedule with
    | Some { kind = Smc.Race r; _ } ->
      Alcotest.(check int) "same location on replay" loc r.loc
    | other ->
      Alcotest.failf "replay did not reproduce the race: %a"
        Fmt.(option Smc.pp_violation)
        other);
    (* Replaying the same schedule without the sanitizer runs clean: the
       race truly does not manifest. *)
    Alcotest.(check bool) "silent without sanitizer" true
      (Smc.replay silent_ww_race schedule = None)
  | _ -> Alcotest.failf "expected write/write race, got %a" Smc.pp_outcome o

let test_race_replay_across_strategies () =
  List.iter
    (fun (name, strategy) ->
      let o = Smc.explore ~sanitize:vc_only strategy silent_ww_race in
      match o.Smc.violation with
      | Some ({ kind = Smc.Race _; _ } as v) -> (
        match Smc.replay ~sanitize:vc_only silent_ww_race v.Smc.schedule with
        | Some v' -> Alcotest.(check bool) (name ^ ": same kind") true (v'.Smc.kind = v.Smc.kind)
        | None -> Alcotest.failf "%s: replay did not reproduce" name)
      | _ -> Alcotest.failf "%s: expected race, got %a" name Smc.pp_outcome o)
    [
      ("dfs", Smc.Dfs { max_schedules = 10_000 });
      ("random", Smc.Random_walk { seed = 11; schedules = 1_000 });
      ("pct", Smc.Pct { seed = 11; schedules = 1_000; depth = 3 });
    ]

let test_unsynchronized_rw_flagged () =
  (* The classic lost-update body: get/set with no synchronization. The
     detector reports the read/write pair without needing the assertion. *)
  let body () =
    let c = Smc.Cell.make 0 in
    let done_ = Smc.Cell.make 0 in
    let incr () =
      let v = Smc.Cell.get c in
      Smc.Cell.set c (v + 1);
      ignore (Smc.Cell.update done_ (fun d -> d + 1))
    in
    Smc.spawn incr;
    Smc.spawn incr;
    Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2)
  in
  let o = Smc.explore ~sanitize:vc_only (Smc.Dfs { max_schedules = 10_000 }) body in
  match o.Smc.violation with
  | Some { kind = Smc.Race _; _ } -> ()
  | _ -> Alcotest.failf "expected race, got %a" Smc.pp_outcome o

let test_mutex_protected_clean () =
  let body () =
    let c = Smc.Cell.make 0 in
    let done_ = Smc.Cell.make 0 in
    let m = Smc.Mutex.create () in
    let incr () =
      Smc.Mutex.with_lock m (fun () ->
          let v = Smc.Cell.get c in
          Smc.Cell.set c (v + 1));
      ignore (Smc.Cell.update done_ (fun d -> d + 1))
    in
    Smc.spawn incr;
    Smc.spawn incr;
    Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
    if Smc.Cell.get c <> 2 then failwith "lost update"
  in
  let o = Smc.explore ~sanitize:Sanitize.default (Smc.Dfs { max_schedules = 100_000 }) body in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "no cycles" true (o.Smc.lock_cycles = []);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted

(* Publication pattern: data is written plain, then published through an
   atomic RMW flag; the reader consumes the flag with an RMW before
   touching data. Happens-before orders the accesses — VC mode is quiet. *)
let publication_body () =
  let data = Smc.Cell.make 0 in
  let flag = Smc.Cell.make false in
  Smc.spawn (fun () ->
      Smc.Cell.set data 42;
      ignore (Smc.Cell.update flag (fun _ -> true)));
  Smc.spawn (fun () ->
      if Smc.Cell.update flag Fun.id then
        if Smc.Cell.get data <> 42 then failwith "published data missing");
  Smc.yield ()

let test_publication_clean_under_vc () =
  let o = Smc.explore ~sanitize:vc_only (Smc.Dfs { max_schedules = 100_000 }) publication_body in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted

let test_f11_flagged_without_manifesting () =
  (* Fault #11 publishes the locator before the slot write. On the serial
     first schedule the reader still finds the data — the assertion passes —
     but the slot write is not ordered before the reader's slot read, so the
     detector reports the race immediately. *)
  let o =
    Conc.Conc_detect.detect ~sanitize:vc_only
      (Smc.Dfs { max_schedules = 10_000 })
      Faults.F11_locator_race
  in
  match o.Smc.violation with
  | Some { kind = Smc.Race _; _ } ->
    Alcotest.(check int) "caught on the first schedule" 1 o.Smc.schedules_run
  | _ -> Alcotest.failf "expected race, got %a" Smc.pp_outcome o

(* {2 Lock-order analysis} *)

let lock_inversion_body () =
  let a = Smc.Mutex.create () and b = Smc.Mutex.create () in
  Smc.spawn (fun () ->
      Smc.Mutex.lock a;
      Smc.yield ();
      Smc.Mutex.lock b;
      Smc.Mutex.unlock b;
      Smc.Mutex.unlock a);
  Smc.spawn (fun () ->
      Smc.Mutex.lock b;
      Smc.yield ();
      Smc.Mutex.lock a;
      Smc.Mutex.unlock a;
      Smc.Mutex.unlock b)

let test_lock_cycle_without_deadlock () =
  (* One serial schedule: no interleaving, so no deadlock can manifest —
     but both acquisition orders are recorded and the a<->b cycle is
     reported anyway. *)
  let o =
    Smc.explore ~sanitize:order_only (Smc.Dfs { max_schedules = 1 }) lock_inversion_body
  in
  Alcotest.(check bool) "no manifest deadlock" true (o.Smc.violation = None);
  Alcotest.(check (list (list int))) "cycle over locks 0 and 1" [ [ 0; 1 ] ] o.Smc.lock_cycles

let test_ordered_locks_no_cycle () =
  let body () =
    let a = Smc.Mutex.create () and b = Smc.Mutex.create () in
    let worker () =
      Smc.Mutex.lock a;
      Smc.Mutex.lock b;
      Smc.Mutex.unlock b;
      Smc.Mutex.unlock a
    in
    Smc.spawn worker;
    Smc.spawn worker
  in
  let o = Smc.explore ~sanitize:Sanitize.default (Smc.Dfs { max_schedules = 100_000 }) body in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted;
  Alcotest.(check (list (list int))) "no cycles" [] o.Smc.lock_cycles

(* {2 Page-lifecycle shadow} *)

let disk_config = { Disk.extent_count = 4; pages_per_extent = 4; page_size = 8 }

let make_shadowed_disk ?obs () =
  let shadow =
    Sanitize.Page_shadow.create ?obs ~extent_count:disk_config.Disk.extent_count
      ~pages_per_extent:disk_config.Disk.pages_per_extent
      ~page_size:disk_config.Disk.page_size ()
  in
  (Disk.create ~shadow disk_config, shadow)

let dok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "disk error: %a" Disk.pp_io_error e

let test_stale_epoch_read_on_recycled_extent () =
  (* The acceptance harness: a reader holds epoch 0 of an extent that is
     reset and rewritten (recycled) behind its back. The recycled read
     succeeds at the disk level — same offset, valid data — so only the
     shadow can catch it, at the faulting read itself. *)
  let obs = Obs.create ~scope:"test" ~trace_capacity:64 () in
  let disk, shadow = make_shadowed_disk ~obs () in
  dok (Disk.write disk ~extent:2 ~off:0 "AAAAAAAA");
  let reader_epoch = Disk.epoch disk ~extent:2 in
  Alcotest.(check string) "fresh read ok" "AAAAAAAA"
    (dok (Disk.read ~expect_epoch:reader_epoch disk ~extent:2 ~off:0 ~len:8));
  Alcotest.(check int) "no report yet" 0 (Sanitize.Page_shadow.report_count shadow);
  (* Recycle: reset + rewrite by someone else. *)
  dok (Disk.reset disk ~extent:2);
  dok (Disk.write disk ~extent:2 ~off:0 "BBBBBBBB");
  (* The stale reader comes back. The disk happily returns the new bytes —
     without the shadow this is silent corruption. *)
  Alcotest.(check string) "disk serves recycled bytes" "BBBBBBBB"
    (dok (Disk.read ~expect_epoch:reader_epoch disk ~extent:2 ~off:0 ~len:8));
  (match Sanitize.Page_shadow.reports shadow with
  | [ { kind = Sanitize.Page_shadow.Stale_epoch_read { expected; found }; extent; page } ] ->
    Alcotest.(check int) "expected epoch" reader_epoch expected;
    Alcotest.(check int) "found epoch" (Disk.epoch disk ~extent:2) found;
    Alcotest.(check int) "extent" 2 extent;
    Alcotest.(check int) "page" 0 page
  | rs ->
    Alcotest.failf "expected exactly one stale-epoch report, got %a"
      Fmt.(list Sanitize.Page_shadow.pp_report)
      rs);
  Alcotest.(check int) "counter bumped" 1 (Obs.counter_value obs "sanitize.page.stale_epoch_read");
  (* The trace ring holds the replayable event sequence: write/reset/write
     and the report at the faulting read. *)
  let events = List.map (fun e -> e.Obs.event) (Obs.recent obs) in
  Alcotest.(check bool) "report traced" true (List.mem "page_report" events);
  Alcotest.(check bool) "resets traced" true (List.mem "page_reset" events)

let test_quarantined_read_reported_at_faulting_read () =
  let disk, shadow = make_shadowed_disk () in
  dok (Disk.write disk ~extent:1 ~off:0 "XXXXXXXX");
  dok (Disk.reset disk ~extent:1);
  (* The disk rejects the read (beyond the rewound pointer) — the shadow
     still reports it, at the attempt. *)
  (match Disk.read disk ~extent:1 ~off:0 ~len:8 with
  | Error (Disk.Out_of_bounds _) -> ()
  | _ -> Alcotest.fail "read past rewound pointer must be rejected");
  match Sanitize.Page_shadow.reports shadow with
  | [ { kind = Sanitize.Page_shadow.Quarantined_read; extent = 1; page = 0 } ] -> ()
  | rs ->
    Alcotest.failf "expected a quarantined-read report, got %a"
      Fmt.(list Sanitize.Page_shadow.pp_report)
      rs

let test_unwritten_read_reported () =
  let disk, shadow = make_shadowed_disk () in
  (match Disk.read disk ~extent:0 ~off:0 ~len:8 with
  | Error (Disk.Out_of_bounds _) -> ()
  | _ -> Alcotest.fail "read of fresh extent must be rejected");
  match Sanitize.Page_shadow.reports shadow with
  | [ { kind = Sanitize.Page_shadow.Unwritten_read; _ } ] -> ()
  | rs ->
    Alcotest.failf "expected an unwritten-read report, got %a"
      Fmt.(list Sanitize.Page_shadow.pp_report)
      rs

let test_double_reset_reported () =
  let disk, shadow = make_shadowed_disk () in
  dok (Disk.write disk ~extent:3 ~off:0 "YYYYYYYY");
  dok (Disk.reset disk ~extent:3);
  dok (Disk.reset disk ~extent:3);
  match Sanitize.Page_shadow.reports shadow with
  | [ { kind = Sanitize.Page_shadow.Double_reset; extent = 3; _ } ] -> ()
  | rs ->
    Alcotest.failf "expected a double-reset report, got %a"
      Fmt.(list Sanitize.Page_shadow.pp_report)
      rs

let test_write_regression_reported () =
  (* The disk itself enforces sequential writes, so a regression can only
     come from a buggy layer replaying history — exercised on the shadow
     directly. *)
  let shadow =
    Sanitize.Page_shadow.create ~extent_count:2 ~pages_per_extent:4 ~page_size:8 ()
  in
  Sanitize.Page_shadow.on_write shadow ~extent:0 ~off:0 ~len:16;
  Sanitize.Page_shadow.on_write shadow ~extent:0 ~off:8 ~len:8;
  match Sanitize.Page_shadow.reports shadow with
  | [ { kind = Sanitize.Page_shadow.Write_regression { off = 8; expected = 16 }; _ } ] -> ()
  | rs ->
    Alcotest.failf "expected a write-regression report, got %a"
      Fmt.(list Sanitize.Page_shadow.pp_report)
      rs

(* {2 Leaked extents through the chunk store} *)

let chunk_config = { Disk.extent_count = 8; pages_per_extent = 8; page_size = 32 }

let make_stack () =
  let shadow =
    Sanitize.Page_shadow.create ~extent_count:chunk_config.Disk.extent_count
      ~pages_per_extent:chunk_config.Disk.pages_per_extent
      ~page_size:chunk_config.Disk.page_size ()
  in
  let disk = Disk.create ~shadow chunk_config in
  let sched = Io_sched.create ~seed:8L disk in
  let cache = Cache.create sched in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved:[ 0; 1 ] in
  let rng = Rng.create 99L in
  let cs = Chunk.Chunk_store.create sched ~cache ~superblock:sb ~rng in
  (shadow, sched, sb, cs)

let cok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "chunk store error: %a" Chunk.Chunk_store.pp_error e

let test_leaked_extent_reported_at_close () =
  let shadow, sched, sb, cs = make_stack () in
  let loc, _ = cok (Chunk.Chunk_store.put cs ~owner:(Chunk.Chunk_format.Shard "a") ~payload:"orphan") in
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (* Drop every reference and close: the written extent is unreachable and
     was never reset — a leak. *)
  Chunk.Chunk_store.close_open_extent cs;
  (match Chunk.Chunk_store.close cs ~in_use:(fun _ -> false) with
  | [ (extent, pages) ] ->
    Alcotest.(check int) "leaked the written extent" loc.Chunk.Locator.extent extent;
    Alcotest.(check bool) "pages counted" true (pages > 0)
  | ls -> Alcotest.failf "expected one leak, got %d" (List.length ls));
  Alcotest.(check bool) "shadow recorded the leak" true
    (List.exists
       (fun r ->
         match r.Sanitize.Page_shadow.kind with
         | Sanitize.Page_shadow.Extent_leak _ -> true
         | _ -> false)
       (Sanitize.Page_shadow.reports shadow));
  Alcotest.(check int) "counter bumped" 1
    (Obs.counter_value (Chunk.Chunk_store.obs cs) "chunk.leaked_extent")

let test_clean_workload_shadow_quiet () =
  let shadow, sched, sb, cs = make_stack () in
  let locs = ref [] in
  for i = 0 to 5 do
    let loc, _ =
      cok
        (Chunk.Chunk_store.put cs
           ~owner:(Chunk.Chunk_format.Shard (Printf.sprintf "k%d" i))
           ~payload:(Printf.sprintf "v%d" i))
    in
    locs := loc :: !locs
  done;
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  List.iter (fun loc -> ignore (cok (Chunk.Chunk_store.get cs loc))) !locs;
  let in_use extent = List.exists (fun l -> l.Chunk.Locator.extent = extent) !locs in
  Alcotest.(check (list (pair int int))) "no leaks" [] (Chunk.Chunk_store.close cs ~in_use);
  Alcotest.(check int) "shadow quiet" 0 (Sanitize.Page_shadow.report_count shadow)

let () =
  Alcotest.run "sanitize"
    [
      ( "races",
        [
          Alcotest.test_case "silent ww race caught without manifesting" `Quick
            test_silent_ww_race_caught;
          Alcotest.test_case "race replay across strategies" `Quick
            test_race_replay_across_strategies;
          Alcotest.test_case "unsynchronized get/set flagged" `Quick test_unsynchronized_rw_flagged;
          Alcotest.test_case "mutex-protected counter clean" `Quick test_mutex_protected_clean;
          Alcotest.test_case "publication clean under vc" `Quick test_publication_clean_under_vc;
          Alcotest.test_case "#11 flagged without manifesting" `Quick
            test_f11_flagged_without_manifesting;
        ] );
      ( "lock order",
        [
          Alcotest.test_case "cycle found without deadlock" `Quick test_lock_cycle_without_deadlock;
          Alcotest.test_case "ordered locks, no cycle" `Quick test_ordered_locks_no_cycle;
        ] );
      ( "page shadow",
        [
          Alcotest.test_case "stale-epoch read on recycled extent" `Quick
            test_stale_epoch_read_on_recycled_extent;
          Alcotest.test_case "quarantined read at faulting read" `Quick
            test_quarantined_read_reported_at_faulting_read;
          Alcotest.test_case "unwritten read" `Quick test_unwritten_read_reported;
          Alcotest.test_case "double reset" `Quick test_double_reset_reported;
          Alcotest.test_case "write regression" `Quick test_write_regression_reported;
        ] );
      ( "leaks",
        [
          Alcotest.test_case "leaked extent reported at close" `Quick
            test_leaked_extent_reported_at_close;
          Alcotest.test_case "clean workload quiet" `Quick test_clean_workload_shadow_quiet;
        ] );
    ]
