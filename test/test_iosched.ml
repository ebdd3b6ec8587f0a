(* Tests for the IO scheduler: volatile staging, dependency-ordered
   writeback, promises, and crash-state generation. *)

open Util

let small = { Disk.extent_count = 4; pages_per_extent = 4; page_size = 16 }

let make () =
  let disk = Disk.create small in
  (disk, Io_sched.create ~seed:1L disk)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected scheduler error: %a" Io_sched.pp_error e

let test_volatile_read_sees_pending () =
  let disk, s = make () in
  let dep = ok (Io_sched.append s ~extent:0 ~data:"hello" ~input:Dep.trivial) in
  Alcotest.(check bool) "not yet persistent" false (Dep.is_persistent dep);
  Alcotest.(check string) "volatile read" "hello"
    (ok (Io_sched.read s ~extent:0 ~off:0 ~len:5));
  Alcotest.(check int) "nothing durable" 0 (Disk.hard_ptr disk ~extent:0);
  let n = Io_sched.pump s in
  Alcotest.(check int) "one io" 1 n;
  Alcotest.(check bool) "persistent after pump" true (Dep.is_persistent dep);
  Alcotest.(check int) "durable" 5 (Disk.hard_ptr disk ~extent:0)

let test_dependency_orders_issuance () =
  let disk, s = make () in
  let d1 = ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial) in
  let d2 = ok (Io_sched.append s ~extent:1 ~data:"bb" ~input:d1) in
  (* d2 is on another extent but must not be issued before d1 persists. *)
  let rec pump_until_d2 guard =
    if guard = 0 then Alcotest.fail "d2 never issued";
    ignore (Io_sched.pump ~max_ios:1 s);
    if Disk.hard_ptr disk ~extent:1 > 0 then () else pump_until_d2 (guard - 1)
  in
  pump_until_d2 10;
  Alcotest.(check bool) "d1 was issued first" true (Dep.is_persistent d1);
  Alcotest.(check bool) "d2 done" true (Dep.is_persistent d2)

let test_fifo_per_extent () =
  let disk, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial));
  ignore (ok (Io_sched.append s ~extent:0 ~data:"bb" ~input:Dep.trivial));
  ignore (Io_sched.pump ~max_ios:1 s);
  Alcotest.(check string) "prefix issued in order" "aa" (Disk.durable_image disk ~extent:0)

let test_and_dep () =
  let _, s = make () in
  let d1 = ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial) in
  let d2 = ok (Io_sched.append s ~extent:1 ~data:"bb" ~input:Dep.trivial) in
  let both = Dep.and_ d1 d2 in
  Alcotest.(check bool) "not yet" false (Dep.is_persistent both);
  ok (Io_sched.flush s);
  Alcotest.(check bool) "both" true (Dep.is_persistent both)

let test_promise () =
  let _, s = make () in
  let p = Dep.Promise.create () in
  let d = Dep.Promise.dep p in
  Alcotest.(check bool) "unbound not persistent" false (Dep.is_persistent d);
  Alcotest.(check bool) "unbound not failed" false (Dep.has_failed d);
  let w = ok (Io_sched.append s ~extent:0 ~data:"x" ~input:Dep.trivial) in
  Dep.Promise.bind p w;
  Alcotest.(check bool) "bound pending" false (Dep.is_persistent d);
  ok (Io_sched.flush s);
  Alcotest.(check bool) "bound persistent" true (Dep.is_persistent d);
  (* Double bind rejected. *)
  match Dep.Promise.bind p w with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double bind must raise"

(* Stage a chain of appends, each depending on the previous one, and keep
   only the last dependency. Never inlined, so no frame of the caller still
   holds a payload. *)
let[@inline never] stage_chain s first =
  let dep = ref Dep.trivial in
  for i = 0 to 7 do
    let data = String.make 4 (Char.chr (97 + i)) in
    if i = 0 then Weak.set first 0 (Some data);
    dep := ok (Io_sched.append s ~extent:(i mod 4) ~data ~input:!dep)
  done;
  !dep

(* A settled write drops its input: a durable chain's last dependency must
   not pin the payloads written before it. *)
let test_settled_chain_releases_payloads () =
  let _, s = make () in
  let first = Weak.create 1 in
  let last = stage_chain s first in
  Alcotest.(check bool) "first payload live while pending" true (Weak.check first 0);
  ok (Io_sched.flush s);
  Alcotest.(check bool) "chain durable" true (Dep.is_persistent last);
  Gc.full_major ();
  Alcotest.(check bool) "first payload collected" false (Weak.check first 0);
  Alcotest.(check bool) "last dep still persistent" true (Dep.is_persistent last)

let test_promise_cycle_terminates () =
  (* A promise accidentally bound into a dependency containing itself must
     not send the traversals into a loop. *)
  let p = Dep.Promise.create () in
  let d = Dep.and_ (Dep.Promise.dep p) (Dep.Promise.dep p) in
  Dep.Promise.bind p d;
  Alcotest.(check bool) "is_persistent terminates" true (Dep.is_persistent d || true);
  Alcotest.(check bool) "has_failed terminates" false (Dep.has_failed d);
  Alcotest.(check bool) "writes terminates" true (Dep.writes d = [])

let test_reset_epoch_volatile () =
  let _, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"old" ~input:Dep.trivial));
  let r = ok (Io_sched.reset s ~extent:0 ~input:Dep.trivial) in
  Alcotest.(check int) "volatile epoch" 1 (Io_sched.epoch s ~extent:0);
  Alcotest.(check int) "volatile pointer" 0 (Io_sched.soft_ptr s ~extent:0);
  ignore (ok (Io_sched.append s ~extent:0 ~data:"new" ~input:Dep.trivial));
  Alcotest.(check string) "new data visible" "new" (ok (Io_sched.read s ~extent:0 ~off:0 ~len:3));
  ok (Io_sched.flush s);
  Alcotest.(check bool) "reset durable" true (Dep.is_persistent r)

let test_extent_full () =
  let _, s = make () in
  let big = String.make (Io_sched.extent_size s) 'x' in
  ignore (ok (Io_sched.append s ~extent:0 ~data:big ~input:Dep.trivial));
  match Io_sched.append s ~extent:0 ~data:"y" ~input:Dep.trivial with
  | Error (Io_sched.Extent_full _) -> ()
  | _ -> Alcotest.fail "expected Extent_full"

let test_crash_drops_pending () =
  let disk, s = make () in
  let d = ok (Io_sched.append s ~extent:0 ~data:"gone" ~input:Dep.trivial) in
  let rng = Rng.create 5L in
  let report = Io_sched.crash s ~rng ~persist_probability:0.0 ~split_pages:false in
  Alcotest.(check int) "dropped" 1 report.Io_sched.dropped;
  Alcotest.(check bool) "dep failed" true (Dep.has_failed d);
  Alcotest.(check int) "nothing durable" 0 (Disk.hard_ptr disk ~extent:0);
  Alcotest.(check int) "volatile reloaded" 0 (Io_sched.soft_ptr s ~extent:0)

let test_crash_persists_all () =
  let disk, s = make () in
  let d = ok (Io_sched.append s ~extent:0 ~data:"kept" ~input:Dep.trivial) in
  let rng = Rng.create 5L in
  let report = Io_sched.crash s ~rng ~persist_probability:1.0 ~split_pages:false in
  Alcotest.(check int) "persisted" 1 report.Io_sched.persisted;
  Alcotest.(check bool) "dep persistent" true (Dep.is_persistent d);
  Alcotest.(check string) "durable" "kept" (Disk.durable_image disk ~extent:0)

(* Property: crash states respect dependencies — if a write persisted, its
   input dependency's writes persisted too (soft updates' core invariant). *)
let prop_crash_respects_deps =
  QCheck.Test.make ~name:"crash respects dependency closure" ~count:200
    QCheck.(pair small_nat (int_bound 1000))
    (fun (n_ops, seed) ->
      let n_ops = 1 + (n_ops mod 12) in
      let disk = Disk.create { Disk.extent_count = 4; pages_per_extent = 8; page_size = 16 } in
      let s = Io_sched.create ~seed:(Int64.of_int seed) disk in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      (* Build a random chain/diamond of appends across extents. *)
      let deps = ref [ Dep.trivial ] in
      let writes = ref [] in
      for _ = 1 to n_ops do
        let extent = Rng.int rng 4 in
        let input = Rng.pick_list rng !deps in
        let data = Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 24)) in
        match Io_sched.append s ~extent ~data ~input with
        | Ok d ->
          deps := d :: !deps;
          writes := (d, input) :: !writes
        | Error _ -> ()
      done;
      ignore (Io_sched.pump ~max_ios:(Rng.int rng 4) s);
      let _ =
        Io_sched.crash s ~rng ~persist_probability:0.5 ~split_pages:false
      in
      List.for_all
        (fun (d, input) -> (not (Dep.is_persistent d)) || Dep.is_persistent input)
        !writes)

let test_crash_split_pages () =
  (* Force a partial persist: a 3-page write cut at a page boundary. *)
  let found = ref false in
  let attempt seed =
    let disk = Disk.create small in
    let s = Io_sched.create ~seed:1L disk in
    let data = String.make 40 'z' in
    let d = ok (Io_sched.append s ~extent:0 ~data ~input:Dep.trivial) in
    let rng = Rng.create (Int64.of_int seed) in
    let report = Io_sched.crash s ~rng ~persist_probability:1.0 ~split_pages:true in
    if report.Io_sched.partial = 1 then begin
      found := true;
      let hp = Disk.hard_ptr disk ~extent:0 in
      Alcotest.(check bool) "cut at page boundary" true (hp mod 16 = 0 && hp > 0 && hp < 40);
      Alcotest.(check bool) "partial write not persistent" true (Dep.has_failed d)
    end
  in
  let seed = ref 0 in
  while (not !found) && !seed < 200 do
    attempt !seed;
    incr seed
  done;
  Alcotest.(check bool) "found a partial crash state" true !found

(* Property: [crash_states] enumerates what [crash] samples. On a random
   small scheduler (appends up to three pages long, resets, promises bound
   to later writes, partial write-back) with torn pages on, the disk a
   crash leaves behind is the disk of one state enumerated before it. No
   two enumerated states leave the same disk, which determines the state
   (per extent, epochs and write pointers only grow along the queue), so
   each comes once. *)
let prop_crash_is_an_enumerated_state =
  QCheck.Test.make ~name:"crash leaves an enumerated state" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let n = 3 in
      let disk = Disk.create { Disk.extent_count = n; pages_per_extent = 8; page_size = 16 } in
      let s = Io_sched.create ~seed:(Int64.of_int seed) disk in
      let rng = Rng.create (Int64.of_int (seed + 5)) in
      let deps = ref [ Dep.trivial ] and promises = ref [] in
      for _ = 1 to 1 + Rng.int rng 10 do
        let extent = Rng.int rng n and input = Rng.pick_list rng !deps in
        (match Rng.int rng 10 with
        | 0 -> deps := ok (Io_sched.reset s ~extent ~input) :: !deps
        | 1 ->
          let p = Dep.Promise.create () in
          promises := p :: !promises;
          deps := Dep.and_ input (Dep.Promise.dep p) :: !deps
        | _ -> (
          let data = String.make (1 + Rng.int rng 40) (Char.chr (97 + Rng.int rng 26)) in
          match Io_sched.append s ~extent ~data ~input with
          | Ok d -> deps := d :: !deps
          | Error _ -> ()));
        if Rng.int rng 4 = 0 then ignore (Io_sched.pump ~max_ios:1 s)
      done;
      List.iter
        (fun p -> if Rng.bool rng then Dep.Promise.bind p (Rng.pick_list rng !deps))
        !promises;
      let image d =
        String.concat "|"
          (List.init n (fun extent ->
               Printf.sprintf "%d.%d.%s" (Disk.hard_ptr d ~extent) (Disk.epoch d ~extent)
                 (Disk.durable_image d ~extent)))
      in
      let states =
        List.of_seq
          (Seq.map
             (fun state ->
               let d = Disk.copy disk in
               Io_sched.write_state s state d;
               image d)
             (Io_sched.crash_states s))
      in
      let persist_probability = Rng.float rng 1.0 in
      ignore (Io_sched.crash s ~rng ~persist_probability ~split_pages:true);
      if List.length (List.sort_uniq compare states) <> List.length states then
        QCheck.Test.fail_reportf "%d states, some twice" (List.length states);
      List.mem (image disk) states)

(* Property: for any random acyclic dependency graph over appends, flush
   achieves forward progress (everything persists) and the durable bytes
   equal the volatile image. *)
let prop_flush_forward_progress =
  QCheck.Test.make ~name:"flush persists arbitrary acyclic graphs" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let disk = Disk.create { Disk.extent_count = 4; pages_per_extent = 16; page_size = 16 } in
      let s = Io_sched.create ~seed:(Int64.of_int seed) disk in
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let deps = ref [ Dep.trivial ] in
      for _ = 1 to 1 + Rng.int rng 20 do
        let extent = Rng.int rng 4 in
        let input = Rng.pick_list rng !deps in
        let data = Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 24)) in
        match Io_sched.append s ~extent ~data ~input with
        | Ok d -> deps := d :: !deps
        | Error (Io_sched.Extent_full _) -> ()
        | Error e -> QCheck.Test.fail_reportf "append: %a" Io_sched.pp_error e
      done;
      let images =
        List.init 4 (fun extent ->
            let len = Io_sched.soft_ptr s ~extent in
            if len = 0 then ""
            else Result.get_ok (Io_sched.read s ~extent ~off:0 ~len))
      in
      (match Io_sched.flush s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "flush: %a" Io_sched.pp_error e);
      List.for_all Dep.is_persistent !deps
      && List.for_all2
           (fun extent image -> Disk.durable_image disk ~extent = image)
           [ 0; 1; 2; 3 ] images)

(* Property: a crash never invents bytes — durable data is always a
   page-prefix of what was staged. *)
let prop_crash_prefix_of_staged =
  QCheck.Test.make ~name:"crash durable state is a staged prefix" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let disk = Disk.create { Disk.extent_count = 2; pages_per_extent = 16; page_size = 16 } in
      let s = Io_sched.create ~seed:(Int64.of_int seed) disk in
      let rng = Rng.create (Int64.of_int (seed + 3)) in
      let staged = Array.make 2 "" in
      for extent = 0 to 1 do
        let b = Buffer.create 64 in
        for _ = 1 to 1 + Rng.int rng 5 do
          let data = Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 30)) in
          match Io_sched.append s ~extent ~data ~input:Dep.trivial with
          | Ok _ -> Buffer.add_string b data
          | Error _ -> ()
        done;
        staged.(extent) <- Buffer.contents b
      done;
      ignore (Io_sched.crash s ~rng ~persist_probability:0.6 ~split_pages:true);
      List.for_all
        (fun extent ->
          let durable = Disk.durable_image disk ~extent in
          String.length durable <= String.length staged.(extent)
          && String.sub staged.(extent) 0 (String.length durable) = durable)
        [ 0; 1 ])

let test_flush_stuck_on_unbound_promise () =
  let _, s = make () in
  let p = Dep.Promise.create () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"x" ~input:(Dep.Promise.dep p)));
  match Io_sched.flush s with
  | Error (Io_sched.Stuck { blocked = 1 }) -> ()
  | Ok () -> Alcotest.fail "flush must not complete with an unbound promise"
  | Error e -> Alcotest.failf "unexpected error: %a" Io_sched.pp_error e

let test_transient_write_failure_retries () =
  let disk, s = make () in
  let d = ok (Io_sched.append s ~extent:0 ~data:"x" ~input:Dep.trivial) in
  Disk.fail_once disk ~extent:0;
  ok (Io_sched.flush s);
  Alcotest.(check bool) "retried to durability" true (Dep.is_persistent d)

let test_permanent_write_failure_poisons_queue () =
  let disk, s = make () in
  let d1 = ok (Io_sched.append s ~extent:0 ~data:"a" ~input:Dep.trivial) in
  let d2 = ok (Io_sched.append s ~extent:0 ~data:"b" ~input:Dep.trivial) in
  Disk.fail_permanently disk ~extent:0;
  ok (Io_sched.flush s);
  Alcotest.(check bool) "first failed" true (Dep.has_failed d1);
  Alcotest.(check bool) "second failed" true (Dep.has_failed d2);
  Alcotest.(check int) "queue drained" 0 (Io_sched.pending_count s)

let test_quarantine_after_permanent_failure () =
  let disk, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"lost-data" ~input:Dep.trivial));
  Disk.fail_permanently disk ~extent:0;
  ok (Io_sched.flush s);
  Disk.heal disk ~extent:0;
  (* volatile state resynchronized and the extent retired *)
  Alcotest.(check bool) "quarantined" true (Io_sched.quarantined s ~extent:0);
  Alcotest.(check int) "soft pointer resynced" 0 (Io_sched.soft_ptr s ~extent:0);
  (match Io_sched.append s ~extent:0 ~data:"nope" ~input:Dep.trivial with
  | Error (Io_sched.Io Disk.Permanent) -> ()
  | _ -> Alcotest.fail "appends on a quarantined extent must be rejected");
  (* a reset lifts the quarantine with a fresh, never-used epoch *)
  let before = Io_sched.epoch s ~extent:0 in
  ignore (ok (Io_sched.reset s ~extent:0 ~input:Dep.trivial));
  Alcotest.(check bool) "not quarantined" false (Io_sched.quarantined s ~extent:0);
  Alcotest.(check bool) "epoch advanced" true (Io_sched.epoch s ~extent:0 > before);
  ignore (ok (Io_sched.append s ~extent:0 ~data:"fresh" ~input:Dep.trivial));
  ok (Io_sched.flush s);
  Alcotest.(check int) "durable epoch matches minted epoch"
    (Io_sched.epoch s ~extent:0) (Disk.epoch disk ~extent:0)

let test_monotone_epochs_across_lost_resets () =
  (* A reset lost to a permanent failure must not allow its epoch to be
     re-minted: locators of lost writes would collide with new data. *)
  let disk, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"old" ~input:Dep.trivial));
  ok (Io_sched.flush s);
  ignore (ok (Io_sched.reset s ~extent:0 ~input:Dep.trivial));
  let lost_epoch = Io_sched.epoch s ~extent:0 in
  Disk.fail_permanently disk ~extent:0;
  ok (Io_sched.flush s);
  Disk.heal disk ~extent:0;
  Alcotest.(check int) "epoch resynced to durable" (Disk.epoch disk ~extent:0)
    (Io_sched.epoch s ~extent:0);
  ignore (ok (Io_sched.reset s ~extent:0 ~input:Dep.trivial));
  Alcotest.(check bool) "lost epoch never re-minted" true
    (Io_sched.epoch s ~extent:0 > lost_epoch)

let test_stats () =
  let _, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial));
  ignore (ok (Io_sched.reset s ~extent:1 ~input:Dep.trivial));
  ok (Io_sched.flush s);
  let count name = Obs.counter_value (Io_sched.obs s) name in
  Alcotest.(check int) "appends" 1 (count "iosched.append");
  Alcotest.(check int) "resets" 1 (count "iosched.reset");
  Alcotest.(check int) "ios" 2 (count "iosched.io_issued");
  Alcotest.(check int) "bytes" 2 (count "iosched.bytes_issued")

(* Group-commit writeback: adjacent ready appends merge into one disk IO. *)
let test_submit_batch_coalesces () =
  let disk, s = make () in
  let d1 = ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial) in
  let d2 = ok (Io_sched.append s ~extent:0 ~data:"bb" ~input:Dep.trivial) in
  let d3 = ok (Io_sched.append s ~extent:0 ~data:"cc" ~input:Dep.trivial) in
  let n = Io_sched.submit_batch s in
  Alcotest.(check int) "three appends, one io" 1 n;
  Alcotest.(check bool) "all persistent" true
    (Dep.is_persistent d1 && Dep.is_persistent d2 && Dep.is_persistent d3);
  Alcotest.(check string) "durable image merged in order" "aabbcc"
    (Disk.durable_image disk ~extent:0);
  let obs = Io_sched.obs s in
  Alcotest.(check int) "k-1 coalesced" 2 (Obs.counter_value obs "iosched.coalesced_append");
  Alcotest.(check int) "one batch submit" 1 (Obs.counter_value obs "iosched.batch_submit")

let test_submit_batch_intra_run_deps () =
  (* A chain of same-extent appends each depending on the previous one: a
     single-IO pump can only issue the head, but the merged IO is atomic, so
     submit_batch may (and does) issue the whole chain as one write. *)
  let disk, s = make () in
  let d1 = ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial) in
  let d2 = ok (Io_sched.append s ~extent:0 ~data:"bb" ~input:d1) in
  let d3 = ok (Io_sched.append s ~extent:0 ~data:"cc" ~input:d2) in
  let n = Io_sched.submit_batch s in
  Alcotest.(check int) "chained run still one io" 1 n;
  Alcotest.(check bool) "chain persistent" true (Dep.is_persistent d3);
  Alcotest.(check string) "chain durable" "aabbcc" (Disk.durable_image disk ~extent:0)

let test_submit_batch_respects_external_deps () =
  let disk, s = make () in
  let p = Dep.Promise.create () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial));
  let blocked = ok (Io_sched.append s ~extent:0 ~data:"bb" ~input:(Dep.Promise.dep p)) in
  (* Extent 1's head is blocked outright: nothing may issue there. *)
  let blocked1 = ok (Io_sched.append s ~extent:1 ~data:"zz" ~input:(Dep.Promise.dep p)) in
  let n = Io_sched.submit_batch s in
  Alcotest.(check int) "only the unblocked head issues" 1 n;
  Alcotest.(check string) "merge stops at the external dep" "aa"
    (Disk.durable_image disk ~extent:0);
  Alcotest.(check string) "blocked extent untouched" "" (Disk.durable_image disk ~extent:1);
  Alcotest.(check bool) "blocked writes still pending" false
    (Dep.is_persistent blocked || Dep.is_persistent blocked1);
  Alcotest.(check int) "still staged" 2 (Io_sched.pending_count s)

let test_submit_batch_max_ios () =
  let _, s = make () in
  ignore (ok (Io_sched.append s ~extent:0 ~data:"aa" ~input:Dep.trivial));
  ignore (ok (Io_sched.append s ~extent:1 ~data:"bb" ~input:Dep.trivial));
  ignore (ok (Io_sched.append s ~extent:2 ~data:"cc" ~input:Dep.trivial));
  Alcotest.(check int) "bounded" 2 (Io_sched.submit_batch ~max_ios:2 s);
  Alcotest.(check int) "remainder" 1 (Io_sched.submit_batch s)

(* {2 Write-back schedule}

   The validation stack explores write-back orders from a seed, so the
   order in which [pump] and [submit_batch] issue writes, and the values
   they draw, are part of every verdict. The workload below observes them
   on a small scheduler; its digest over 200 seeds is pinned with and
   without the pump and flush ops, and [pump]'s order is also pinned as a
   distribution, further below. *)

let workload_config = { Disk.extent_count = 16; pages_per_extent = 4; page_size = 16 }

(* A seeded random workload on a 16-extent scheduler: appends and resets
   whose inputs mix cross-extent writes, fresh, aliased and cyclic
   promises; late binds; one-shot and permanent faults (hand-placed or
   randomly armed); pump and submit_batch with random [max_ios]; flushes,
   restarts and crashes. Returns one line per op observing everything the
   write-back schedule decides. [after] runs after every op. With
   [~pumps:false] the pump and flush ops record a no-op instead, so the
   scheduler's generator is never drawn and the trace observes only
   [submit_batch], [crash] and [discard_volatile]. *)
let schedule_trace ?(after = fun _ -> ()) ?(pumps = true) seed =
  let n = workload_config.Disk.extent_count in
  let rng = Rng.of_int seed in
  let disk = Disk.create workload_config in
  let s = Io_sched.create ~seed:(Int64.of_int ((seed * 7919) + 1)) disk in
  if seed mod 4 = 0 then
    Disk.arm_random_faults disk ~rng:(Rng.of_int (seed + 1)) ~transient_prob:0.05
      ~permanent_prob:0.005;
  let buf = Buffer.create 8192 in
  let pool = Array.make 32 Dep.trivial in
  let pooled = ref 0 in
  let add_dep d =
    pool.(!pooled mod 32) <- d;
    incr pooled
  in
  let promises = ref [||] in
  let recent () = if !pooled = 0 then Dep.trivial else pool.(Rng.int rng (min !pooled 32)) in
  let any_promise () =
    if Array.length !promises = 0 || Rng.bool rng then begin
      let p = Dep.Promise.create () in
      promises := Array.append !promises [| p |];
      p
    end
    else Rng.pick rng !promises
  in
  let input () =
    match Rng.int rng 6 with
    | 0 | 1 -> Dep.trivial
    | 2 -> recent ()
    | 3 -> Dep.Promise.dep (any_promise ())
    | 4 -> Dep.and_ (recent ()) (recent ())
    | _ -> Dep.and_ (recent ()) (Dep.Promise.dep (any_promise ()))
  in
  let record tag v =
    Printf.bprintf buf "%s%d p%d:" tag v (Io_sched.pending_count s);
    for e = 0 to n - 1 do
      Printf.bprintf buf "%d.%d%s," (Disk.hard_ptr disk ~extent:e) (Disk.epoch disk ~extent:e)
        (if Io_sched.quarantined s ~extent:e then "q" else "")
    done;
    Printf.bprintf buf " d%d\n"
      (Array.fold_left (fun acc d -> if Dep.is_persistent d then acc + 1 else acc) 0 pool)
  in
  let max_ios () = if Rng.bool rng then max_int else 1 + Rng.int rng 4 in
  let staged tag = function
    | Ok d ->
      add_dep d;
      record tag 0
    | Error (Io_sched.Extent_full _) -> record (tag ^ "full") 0
    | Error e -> record (tag ^ Format.asprintf "(%a)" Io_sched.pp_error e) 0
  in
  for _ = 1 to 120 do
    (match Rng.int rng 100 with
    | r when r < 36 ->
      let extent = Rng.int rng n in
      let data = String.make (1 + Rng.int rng 24) (Char.chr (97 + Rng.int rng 26)) in
      staged "A" (Io_sched.append s ~extent ~data ~input:(input ()))
    | r when r < 41 -> staged "R" (Io_sched.reset s ~extent:(Rng.int rng n) ~input:(input ()))
    | r when r < 50 -> (
      let unbound =
        List.filter (fun p -> not (Dep.Promise.is_bound p)) (Array.to_list !promises)
      in
      match unbound with
      | [] -> record "b-" 0
      | ps ->
        let p = Rng.pick_list rng ps in
        let d =
          match Rng.int rng 4 with
          | 0 -> Dep.trivial
          | 1 -> recent ()
          | 2 -> Dep.and_ (Dep.Promise.dep p) (recent ())
          | _ -> Dep.and_ (Dep.Promise.dep (any_promise ())) (recent ())
        in
        Dep.Promise.bind p d;
        record "b" 0)
    | r when r < 54 ->
      Disk.fail_once disk ~extent:(Rng.int rng n);
      record "t" 0
    | r when r < 56 ->
      Disk.fail_permanently disk ~extent:(Rng.int rng n);
      record "x" 0
    | r when r < 60 ->
      Disk.heal disk ~extent:(Rng.int rng n);
      record "h" 0
    | r when r < 75 && not pumps -> record "-" 0
    | r when r < 75 -> record "P" (Io_sched.pump ~max_ios:(max_ios ()) s)
    | r when r < 91 -> record "B" (Io_sched.submit_batch ~max_ios:(max_ios ()) s)
    | r when r < 94 && not pumps -> record "-" 0
    | r when r < 94 -> (
      match Io_sched.flush s with
      | Ok () -> record "L" 0
      | Error e -> record (Format.asprintf "L(%a)" Io_sched.pp_error e) 0)
    | r when r < 96 ->
      Io_sched.discard_volatile s;
      record "D" 0
    | _ ->
      let persist_probability = Rng.float rng 1.0 in
      let split_pages = Rng.bool rng in
      let c = Io_sched.crash s ~rng ~persist_probability ~split_pages in
      record
        (Printf.sprintf "C%d/%d/" c.Io_sched.persisted c.Io_sched.partial)
        c.Io_sched.dropped);
    after s
  done;
  Buffer.contents buf

let schedule_digest ?after ?pumps () =
  let d = Buffer.create 4096 in
  for seed = 0 to 199 do
    Buffer.add_string d (Digest.string (schedule_trace ?after ?pumps seed))
  done;
  Digest.to_hex (Digest.string (Buffer.contents d))

let test_schedule_digest_pinned () =
  Alcotest.(check string) "schedule digest" "2f912a0437c0797dec9e89242b781c02" (schedule_digest ())

let test_pump_free_digest_pinned () =
  Alcotest.(check string) "pump-free schedule digest" "8c844ad73b3e7223d4f05b353b6877fb"
    (schedule_digest ~pumps:false ())

(* [pump]'s order contract is a distribution, not a stream: within a pass
   every relative order of the ready queue heads is equally likely. Stage
   one ready append on each of [k] extents, pump once per scheduler seed,
   read the issue order off the trace ring and count each order. The
   counts over seeds 0-5,999 must pass a chi-square test at p = 0.001
   (fixed seeds, so the test is deterministic). *)
let issue_order extents seed =
  let obs = Obs.create ~trace_capacity:16 () in
  let s = Io_sched.create ~obs ~seed:(Int64.of_int seed) (Disk.create workload_config) in
  List.iter
    (fun extent -> ignore (ok (Io_sched.append s ~extent ~data:"x" ~input:Dep.trivial)))
    extents;
  if Io_sched.pump s <> List.length extents then
    Alcotest.failf "seed %d: a head did not issue" seed;
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.event = "io_issue" then Some (List.assoc "extent" e.Obs.attrs) else None)
    (Obs.recent obs)

let chi_square extents =
  let seeds = 6000 in
  let counts = Hashtbl.create 24 in
  for seed = 0 to seeds - 1 do
    let order = issue_order extents seed in
    Hashtbl.replace counts order (1 + Option.value ~default:0 (Hashtbl.find_opt counts order))
  done;
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  let orders = fact (List.length extents) in
  let expected = float_of_int seeds /. float_of_int orders in
  let observed = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let missing = orders - List.length observed in
  List.fold_left
    (fun acc c -> acc +. (((float_of_int c -. expected) ** 2.) /. expected))
    (float_of_int missing *. expected)
    observed

let test_pump_order_uniform () =
  List.iter
    (fun (extents, threshold) ->
      let x2 = chi_square extents in
      if x2 >= threshold then
        Alcotest.failf "%d ready extents: chi-square %.2f >= %.2f (p = 0.001)"
          (List.length extents) x2 threshold)
    [ ([ 3; 11 ], 10.83); ([ 3; 11; 6 ], 20.52); ([ 3; 11; 6; 14 ], 49.73) ]

let test_queue_invariants_hold () =
  let after s =
    match Io_sched.queue_invariants s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "queue invariant: %s" e
  in
  for seed = 0 to 199 do
    ignore (schedule_trace ~after seed)
  done

(* Random dependency graphs with aliased and self-referencing promises,
   late binds and writes settling Durable, Dropped or Failed. After every
   step, a blocker cached per tracked dependency under the scheduler's
   protocol (keep the leaf while it blocks, else ask again) answers what
   [Dep.is_persistent] answers. *)
let prop_cached_blocker =
  QCheck.Test.make ~name:"cached blocker answers is_persistent" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let writes = ref [||] and promises = ref [||] and deps = ref [||] in
      let tracked = ref [] in
      let push r x = r := Array.append !r [| x |] in
      let pick r = !r.(Rng.int rng (Array.length !r)) in
      let rec random_dep depth =
        match Rng.int rng 5 with
        | 1 when Array.length !writes > 0 -> Dep.of_write (pick writes)
        | 2 when Array.length !promises > 0 -> Dep.Promise.dep (pick promises)
        | 3 when Array.length !deps > 0 -> pick deps
        | 4 when depth > 0 -> Dep.and_ (random_dep (depth - 1)) (random_dep (depth - 1))
        | _ -> Dep.trivial
      in
      let cached_persistent (d, cache) =
        match !cache with
        | Some b when Dep.blocks b -> false
        | _ -> (
          match Dep.first_blocker d with
          | None ->
            cache := None;
            true
          | found ->
            cache := found;
            false)
      in
      let step i =
        match Rng.int rng 6 with
        | 0 ->
          let w =
            Dep.make_write ~id:i ~extent:0
              ~kind:(Dep.Append { off = 0; data = "x" })
              ~input:(random_dep 2)
          in
          push writes w;
          push deps (Dep.of_write w)
        | 1 -> push promises (Dep.Promise.create ())
        | 2 ->
          let d = Dep.and_ (random_dep 2) (random_dep 2) in
          push deps d;
          tracked := (d, ref None) :: !tracked
        | 3 -> (
          let pending =
            List.filter
              (fun (w : Dep.write) -> w.Dep.status = Dep.Pending)
              (Array.to_list !writes)
          in
          match pending with
          | [] -> ()
          | ws ->
            Dep.set_status (Rng.pick_list rng ws)
              (Rng.weighted rng [ (6, Dep.Durable); (1, Dep.Dropped); (1, Dep.Failed) ]))
        | _ -> (
          let unbound =
            List.filter (fun p -> not (Dep.Promise.is_bound p)) (Array.to_list !promises)
          in
          match unbound with
          | [] -> ()
          | ps ->
            let p = Rng.pick_list rng ps in
            Dep.Promise.bind p
              (if Rng.bool rng then random_dep 2 else Dep.and_ (Dep.Promise.dep p) (random_dep 2)))
      in
      for i = 0 to 79 do
        step i;
        List.iter
          (fun ((d, _) as entry) ->
            let truth = Dep.is_persistent d in
            if cached_persistent entry <> truth then
              QCheck.Test.fail_reportf "step %d: cached blocker disagrees with is_persistent=%b"
                i truth;
            if Option.is_none (Dep.first_blocker d) <> truth then
              QCheck.Test.fail_reportf "step %d: first_blocker disagrees with is_persistent=%b" i
                truth)
          !tracked
      done;
      true)

(* The dependency walks against the list-based walk they replaced. A
   random graph is drawn as a [shape] (writes of every status, promises
   left unbound or bound to shapes that reach other promises or
   themselves, so aliased and cyclic), built into real deps, and walked
   as a shape too, entering each promise once per walk by searching a
   visited list. [persistent_under], [is_persistent], [has_failed],
   [writes] and the leaf [first_blocker] names must all agree. *)
type shape = S_trivial | S_write of int | S_and of shape * shape | S_promise of int

let prop_walks_match_list_walk =
  QCheck.Test.make ~name:"dependency walks match the list-based walk" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let nw = 1 + Rng.int rng 6 and np = 1 + Rng.int rng 5 in
      let all_statuses = [| Dep.Pending; Dep.Durable; Dep.Dropped; Dep.Failed |] in
      let statuses = Array.init nw (fun _ -> Rng.pick rng all_statuses) in
      let chosen = Array.init nw (fun _ -> Rng.bool rng) in
      let rec shape depth =
        match Rng.int rng 4 with
        | 0 -> S_write (Rng.int rng nw)
        | 1 -> S_promise (Rng.int rng np)
        | 2 when depth > 0 -> S_and (shape (depth - 1), shape (depth - 1))
        | _ -> if Rng.bool rng then S_trivial else S_write (Rng.int rng nw)
      in
      let bindings = Array.init np (fun _ -> if Rng.int rng 4 = 0 then None else Some (shape 3)) in
      let root = shape 4 in
      let writes =
        Array.init nw (fun i ->
            let w =
              Dep.make_write ~id:i ~extent:0 ~kind:(Dep.Reset { epoch = 0 }) ~input:Dep.trivial
            in
            if statuses.(i) <> Dep.Pending then Dep.set_status w statuses.(i);
            w)
      in
      let promises = Array.init np (fun _ -> Dep.Promise.create ()) in
      let rec build = function
        | S_trivial -> Dep.trivial
        | S_write i -> Dep.of_write writes.(i)
        | S_and (a, b) -> Dep.and_ (build a) (build b)
        | S_promise k -> Dep.Promise.dep promises.(k)
      in
      Array.iteri (fun k b -> Option.iter (fun s -> Dep.Promise.bind promises.(k) (build s)) b)
        bindings;
      let dep = build root in
      let walk ~on_write ~on_unbound ~combine ~base =
        let visited = ref [] in
        let rec go = function
          | S_trivial -> base
          | S_write i -> on_write i
          | S_and (a, b) -> combine (fun () -> go a) (fun () -> go b)
          | S_promise k ->
            if List.mem k !visited then base
            else begin
              visited := k :: !visited;
              match bindings.(k) with None -> on_unbound k | Some s -> go s
            end
        in
        go root
      in
      let conj a b = a () && b () in
      let under pred =
        walk ~base:true ~combine:conj ~on_unbound:(fun _ -> false) ~on_write:(fun i ->
            match statuses.(i) with
            | Dep.Durable -> true
            | Dep.Pending -> pred i
            | Dep.Dropped | Dep.Failed -> false)
      in
      let failed =
        walk ~base:false ~combine:(fun a b -> a () || b ()) ~on_unbound:(fun _ -> false)
          ~on_write:(fun i -> match statuses.(i) with Dep.Dropped | Dep.Failed -> true | _ -> false)
      in
      let covered =
        let acc = ref [] in
        let (_ : bool) =
          walk ~base:true ~combine:conj ~on_unbound:(fun _ -> true) ~on_write:(fun i ->
              acc := i :: !acc;
              true)
        in
        List.rev !acc
      in
      let blocker =
        walk ~base:None
          ~combine:(fun a b -> match a () with None -> b () | found -> found)
          ~on_unbound:(fun k -> Some (`Promise k))
          ~on_write:(fun i -> if statuses.(i) = Dep.Durable then None else Some (`Write i))
      in
      if Dep.persistent_under (fun w -> chosen.(w.Dep.id)) dep <> under (fun i -> chosen.(i)) then
        QCheck.Test.fail_reportf "persistent_under differs";
      if Dep.is_persistent dep <> under (fun _ -> false) then
        QCheck.Test.fail_reportf "is_persistent differs";
      if Dep.has_failed dep <> failed then QCheck.Test.fail_reportf "has_failed differs";
      if List.map (fun (w : Dep.write) -> w.Dep.id) (Dep.writes dep) <> covered then
        QCheck.Test.fail_reportf "writes differ";
      (* Name the real blocker by what makes it stop blocking: settling its
         write (restored afterwards), else binding its promise. *)
      let named =
        match Dep.first_blocker dep with
        | None -> None
        | Some b ->
          let settles i =
            statuses.(i) <> Dep.Durable
            && begin
              Dep.set_status writes.(i) Dep.Durable;
              let stopped = not (Dep.blocks b) in
              Dep.set_status writes.(i) statuses.(i);
              stopped
            end
          in
          let binds k =
            (not (Dep.Promise.is_bound promises.(k)))
            && begin
              Dep.Promise.bind promises.(k) Dep.trivial;
              not (Dep.blocks b)
            end
          in
          match List.find_opt settles (List.init nw Fun.id) with
          | Some i -> Some (`Write i)
          | None -> Option.map (fun k -> `Promise k) (List.find_opt binds (List.init np Fun.id))
      in
      if named <> blocker then QCheck.Test.fail_reportf "first_blocker differs";
      true)

let () =
  Alcotest.run "iosched"
    [
      ( "staging",
        [
          Alcotest.test_case "volatile read sees pending" `Quick test_volatile_read_sees_pending;
          Alcotest.test_case "dependency orders issuance" `Quick test_dependency_orders_issuance;
          Alcotest.test_case "fifo per extent" `Quick test_fifo_per_extent;
          Alcotest.test_case "and dep" `Quick test_and_dep;
          Alcotest.test_case "promise" `Quick test_promise;
          Alcotest.test_case "promise cycle terminates" `Quick test_promise_cycle_terminates;
          Alcotest.test_case "reset epoch volatile" `Quick test_reset_epoch_volatile;
          Alcotest.test_case "extent full" `Quick test_extent_full;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "settled chain releases payloads" `Quick
            test_settled_chain_releases_payloads;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "coalesces adjacent appends" `Quick test_submit_batch_coalesces;
          Alcotest.test_case "merges intra-run dependency chains" `Quick
            test_submit_batch_intra_run_deps;
          Alcotest.test_case "respects external dependencies" `Quick
            test_submit_batch_respects_external_deps;
          Alcotest.test_case "max_ios bound" `Quick test_submit_batch_max_ios;
        ] );
      ( "crash",
        [
          Alcotest.test_case "drops pending" `Quick test_crash_drops_pending;
          Alcotest.test_case "persists all" `Quick test_crash_persists_all;
          Alcotest.test_case "split pages" `Quick test_crash_split_pages;
          QCheck_alcotest.to_alcotest prop_crash_respects_deps;
          QCheck_alcotest.to_alcotest prop_crash_prefix_of_staged;
          QCheck_alcotest.to_alcotest prop_crash_is_an_enumerated_state;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "digest pinned over 200 seeds" `Quick test_schedule_digest_pinned;
          Alcotest.test_case "pump-free digest pinned over 200 seeds" `Quick
            test_pump_free_digest_pinned;
          Alcotest.test_case "pump issue order is uniform" `Quick test_pump_order_uniform;
          Alcotest.test_case "queue invariants after every op" `Quick test_queue_invariants_hold;
          QCheck_alcotest.to_alcotest prop_cached_blocker;
          QCheck_alcotest.to_alcotest prop_walks_match_list_walk;
        ] );
      ( "failures",
        [
          Alcotest.test_case "stuck on unbound promise" `Quick
            test_flush_stuck_on_unbound_promise;
          QCheck_alcotest.to_alcotest prop_flush_forward_progress;
          Alcotest.test_case "transient write retries" `Quick
            test_transient_write_failure_retries;
          Alcotest.test_case "permanent write poisons queue" `Quick
            test_permanent_write_failure_poisons_queue;
          Alcotest.test_case "quarantine after permanent failure" `Quick
            test_quarantine_after_permanent_failure;
          Alcotest.test_case "monotone epochs across lost resets" `Quick
            test_monotone_epochs_across_lost_resets;
        ] );
    ]
