(* Tests for the concurrency harnesses: every Fig. 5 concurrency issue is
   found by stateless model checking, and the corrected components are
   clean under the same exploration budgets. *)

let dfs = Smc.Dfs { max_schedules = 100_000 }

let expect_violation name outcome pred =
  match outcome.Smc.violation with
  | Some v when pred v.Smc.kind -> ()
  | _ -> Alcotest.failf "%s: expected violation, got %a" name Smc.pp_outcome outcome

let expect_clean name outcome =
  match outcome.Smc.violation with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: unexpected violation: %a" name Smc.pp_outcome outcome

let is_assertion = function Smc.Assertion _ -> true | _ -> false
let is_deadlock = function Smc.Deadlock _ -> true | _ -> false

let test_f11 () =
  expect_violation "#11" (Conc.Conc_detect.detect dfs Faults.F11_locator_race) is_assertion;
  expect_clean "#11 correct" (Conc.Conc_detect.check_correct dfs Faults.F11_locator_race)

let test_f12 () =
  expect_violation "#12"
    (Conc.Conc_detect.detect dfs Faults.F12_buffer_pool_deadlock)
    is_deadlock;
  expect_clean "#12 correct" (Conc.Conc_detect.check_correct dfs Faults.F12_buffer_pool_deadlock)

let test_f13 () =
  expect_violation "#13" (Conc.Conc_detect.detect dfs Faults.F13_list_remove_race) is_assertion;
  expect_clean "#13 correct" (Conc.Conc_detect.check_correct dfs Faults.F13_list_remove_race)

let test_f14 () =
  expect_violation "#14"
    (Conc.Conc_detect.detect dfs Faults.F14_compaction_reclaim_race)
    is_assertion;
  expect_clean "#14 correct"
    (Conc.Conc_detect.check_correct (Smc.Dfs { max_schedules = 50_000 })
       Faults.F14_compaction_reclaim_race)

let test_f14_pct () =
  (* The Shuttle-style randomized strategies find the Fig. 4 race too. *)
  expect_violation "#14 pct"
    (Conc.Conc_detect.detect (Smc.Pct { seed = 3; schedules = 50_000; depth = 3 })
       Faults.F14_compaction_reclaim_race)
    is_assertion;
  expect_violation "#14 random"
    (Conc.Conc_detect.detect (Smc.Random_walk { seed = 3; schedules = 50_000 })
       Faults.F14_compaction_reclaim_race)
    is_assertion

let test_f16 () =
  expect_violation "#16"
    (Conc.Conc_detect.detect dfs Faults.F16_bulk_create_remove_race)
    is_assertion;
  expect_clean "#16 correct"
    (Conc.Conc_detect.check_correct dfs Faults.F16_bulk_create_remove_race)

let test_non_concurrency_fault_rejected () =
  match Conc.Conc_detect.detect dfs Faults.F1_reclaim_off_by_one with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* {2 Sequential sanity of the concurrent components} *)

let test_conc_index_sequential () =
  Faults.disable_all ();
  let index = Conc.Conc_index.create () in
  Conc.Conc_index.put index ~key:1 ~value:10;
  Conc.Conc_index.put index ~key:2 ~value:20;
  Alcotest.(check (option int)) "memtable get" (Some 10) (Conc.Conc_index.get index ~key:1);
  Conc.Conc_index.compact index;
  Alcotest.(check (option int)) "chunk get" (Some 10) (Conc.Conc_index.get index ~key:1);
  Alcotest.(check bool) "chunk on open extent" true (Conc.Conc_index.chunks_on index ~extent:0 > 0);
  Conc.Conc_index.reclaim index ~extent:0;
  Alcotest.(check int) "extent reset" 0 (Conc.Conc_index.chunks_on index ~extent:0);
  Alcotest.(check (option int)) "evacuated get" (Some 10) (Conc.Conc_index.get index ~key:1);
  Conc.Conc_index.put index ~key:1 ~value:11;
  Alcotest.(check (option int)) "overwrite" (Some 11) (Conc.Conc_index.get index ~key:1);
  Alcotest.(check (option int)) "missing" None (Conc.Conc_index.get index ~key:9)

let test_shard_map_sequential () =
  Faults.disable_all ();
  let map = Conc.Shard_map.create () in
  Conc.Shard_map.bulk_create map [ 1; 2; 3 ];
  Alcotest.(check bool) "mem" true (Conc.Shard_map.mem map 2);
  Conc.Shard_map.bulk_remove map [ 2 ];
  Alcotest.(check bool) "removed" false (Conc.Shard_map.mem map 2);
  Alcotest.(check int) "list" 2 (List.length (Conc.Shard_map.list map))

let test_conc_chunks_sequential () =
  Faults.disable_all ();
  let store = Conc.Conc_chunks.create () in
  Conc.Conc_chunks.put store ~payload:5;
  (match Conc.Conc_chunks.published store with
  | [ locator ] ->
    Alcotest.(check (option int)) "read" (Some 5) (Conc.Conc_chunks.read store ~locator)
  | _ -> Alcotest.fail "expected one locator");
  Alcotest.(check (option int)) "bad locator" None (Conc.Conc_chunks.read store ~locator:99)

(* {2 Linearizability of the concurrent index} *)

(* An index event: a put, or a get with the value it returned. *)
type op = Put of int * int | Get of int * int option

let index_step state = function
  | Put (k, v) -> Some ((k, v) :: List.remove_assoc k state)
  | Get (k, seen) -> if List.assoc_opt k state = seen then Some state else None

let test_conc_index_linearizable () =
  Faults.disable_all ();
  let body () =
    let index = Conc.Conc_index.create () in
    Conc.Conc_index.put index ~key:1 ~value:10;
    Conc.Conc_index.compact index;
    (* One domain runs every Smc thread, so a plain counter timestamps
       the intervals (ticks are not scheduling points). *)
    let clock = ref 0 and history = ref [] in
    let record f =
      let invoked = !clock in
      clock := invoked + 1;
      let act = f () in
      let returned = !clock in
      clock := returned + 1;
      history := { Lincheck.invoked; returned; act } :: !history
    in
    let get () = Get (1, Conc.Conc_index.get index ~key:1) in
    let done_ = Smc.Cell.make 0 in
    Smc.spawn (fun () ->
        Conc.Conc_index.reclaim index ~extent:0;
        ignore (Smc.Cell.update done_ (fun d -> d + 1)));
    Smc.spawn (fun () ->
        record (fun () ->
            Conc.Conc_index.put index ~key:1 ~value:11;
            Put (1, 11));
        record get;
        ignore (Smc.Cell.update done_ (fun d -> d + 1)));
    Smc.spawn (fun () ->
        record get;
        ignore (Smc.Cell.update done_ (fun d -> d + 1)));
    Smc.wait_until (fun () -> Smc.Cell.peek done_ = 3);
    match Lincheck.search ~init:[ (1, 10) ] ~step:index_step !history with
    | Lincheck.Linearizable, _ -> ()
    | _ -> failwith "index history not linearizable"
  in
  expect_clean "linearizable under reclamation"
    (Smc.explore (Smc.Random_walk { seed = 11; schedules = 5_000 }) body)

(* {2 The validated reader-writer lock} *)

let test_rwlock_spec () =
  let open Conc.Rwlock.Spec in
  Alcotest.(check bool) "initial ok" true (invariant initial);
  (match step initial Reader_enter with
  | Some s -> Alcotest.(check int) "one reader" 1 s.readers
  | None -> Alcotest.fail "reader blocked on a free lock");
  (* writer preference: a pending writer blocks reader admission *)
  (match step initial Writer_declare with
  | None -> Alcotest.fail "declare blocked"
  | Some pending -> (
    Alcotest.(check (option reject)) "reader blocked while pending" None
      (step pending Reader_enter);
    match step pending Writer_enter with
    | None -> Alcotest.fail "writer blocked with no readers"
    | Some w ->
      Alcotest.(check bool) "writer inside" true w.writer;
      (* classify recovers the labels of both edges *)
      Alcotest.(check bool) "classify declare" true
        (classify ~old_s:initial ~new_s:pending = Some Writer_declare);
      Alcotest.(check bool) "classify enter" true
        (classify ~old_s:pending ~new_s:w = Some Writer_enter);
      Alcotest.(check (option reject)) "no self-loop label" None
        (classify ~old_s:w ~new_s:w)))

let test_rwlock_model () =
  let reports = Conc.Rwlock.Check.model () in
  Alcotest.(check bool) "all harnesses" true (List.length reports >= 5);
  List.iter (fun r -> expect_clean r.Conc.Rwlock.Check.name r.Conc.Rwlock.Check.outcome) reports;
  Alcotest.(check bool) "model_ok" true (Conc.Rwlock.Check.model_ok reports)

let test_rwlock_impl () =
  let r = Conc.Rwlock.Check.impl ~domains:4 ~ops_per_domain:4 ~seed:5 () in
  Alcotest.(check bool) "transitions taken" true (r.Conc.Rwlock.Check.transitions > 0);
  Alcotest.(check int) "no illegal edges" 0 (List.length r.Conc.Rwlock.Check.trace_violations);
  Alcotest.(check bool) "linearizable" true r.Conc.Rwlock.Check.linearizable;
  Alcotest.(check bool) "impl_ok" true (Conc.Rwlock.Check.impl_ok r)

let test_rwlock_sequential () =
  let l = Conc.Rwlock.create () in
  Alcotest.(check int) "free" 0 (Conc.Rwlock.state l).Conc.Rwlock.Spec.readers;
  Conc.Rwlock.with_read l (fun () ->
      Alcotest.(check int) "reader counted" 1 (Conc.Rwlock.state l).Conc.Rwlock.Spec.readers);
  let v =
    Conc.Rwlock.with_write l (fun () ->
        Alcotest.(check bool) "writer flagged" true
          (Conc.Rwlock.state l).Conc.Rwlock.Spec.writer;
        42)
  in
  Alcotest.(check int) "result threaded" 42 v;
  Alcotest.(check bool) "released" false (Conc.Rwlock.state l).Conc.Rwlock.Spec.writer

(* {2 Sharded table and cache lifecycle} *)

let test_shard_table () =
  let t = Conc.Shard_table.create ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Conc.Shard_table.shards t);
  let keys = List.init 32 (Printf.sprintf "key-%d") in
  List.iter
    (fun k ->
      Alcotest.(check bool) "shard in range" true
        (let s = Conc.Shard_table.shard_of t k in
         s >= 0 && s < 4);
      Conc.Shard_table.with_key_write t k (fun tbl -> Hashtbl.replace tbl k (String.length k)))
    keys;
  Alcotest.(check int) "size" 32 (Conc.Shard_table.size t);
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        "read back" (Some (String.length k))
        (Conc.Shard_table.with_key_read t k (fun tbl -> Hashtbl.find_opt tbl k)))
    keys;
  Conc.Shard_table.with_all_write t (fun tables -> Array.iter Hashtbl.reset tables);
  Alcotest.(check int) "cleared" 0 (Conc.Shard_table.size t);
  match Conc.Shard_table.create ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards:0 accepted"

let test_cache_sm () =
  let open Conc.Cache_sm in
  Alcotest.(check bool) "miss claims" true (legal Empty Reading);
  Alcotest.(check bool) "fill completes" true (legal Reading Clean);
  Alcotest.(check bool) "flush window" true (legal Dirty Writeback && legal Writeback Clean);
  Alcotest.(check bool) "no self-loop" false (legal Clean Clean);
  Alcotest.(check bool) "no skip to writeback" false (legal Clean Writeback);
  let a = auditor () in
  record a ~page:1 ~old_s:Empty ~new_s:Reading;
  record a ~page:1 ~old_s:Reading ~new_s:Clean;
  Alcotest.(check int) "checked" 2 (checked a);
  Alcotest.(check int) "clean so far" 0 (List.length (violations a));
  record a ~page:2 ~old_s:Empty ~new_s:Writeback;
  match violations a with
  | [ v ] ->
    Alcotest.(check int) "violating page" 2 v.page;
    Alcotest.(check int) "still counted" 3 (checked a)
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let test_conc_shared_model () =
  let reports = Conc.Conc_shared.run ~budget:4_000 () in
  Alcotest.(check int) "six harnesses" 6 (List.length reports);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        ("harness present: " ^ name)
        true
        (List.exists (fun r -> r.Conc.Conc_shared.name = name) reports))
    [ "shared/maint"; "shared/maint-order" ];
  List.iter (fun r -> expect_clean r.Conc.Conc_shared.name r.Conc.Conc_shared.outcome) reports;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Conc.Conc_shared.name ^ " race-checked")
        true
        (r.Conc.Conc_shared.outcome.Smc.sanitize_accesses > 0))
    reports;
  Alcotest.(check bool) "ok" true (Conc.Conc_shared.ok reports)

(* Worker: the stop flag is checked between steps and the join publishes
   everything the worker wrote. *)
let test_domains_worker () =
  let steps = Atomic.make 0 in
  let w = Conc.Domains.Worker.start (fun n -> Atomic.set steps (n + 1)) in
  (* let it spin at least once *)
  let rec wait k = if Atomic.get steps = 0 && k > 0 then (Domain.cpu_relax (); wait (k - 1)) in
  wait 20_000_000;
  let completed = Conc.Domains.Worker.stop w in
  (* join publishes the worker's writes: the shared counter agrees with
     the step count the worker returned *)
  Alcotest.(check int) "published step count" completed (Atomic.get steps);
  Alcotest.(check bool) "worker stepped" true (completed > 0)

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "conc"
    [
      ( "detection",
        [
          Alcotest.test_case "#11 locator race" `Quick test_f11;
          Alcotest.test_case "#12 buffer pool deadlock" `Quick test_f12;
          Alcotest.test_case "#13 list/remove race" `Quick test_f13;
          Alcotest.test_case "#14 compaction/reclamation race" `Quick test_f14;
          Alcotest.test_case "#14 via randomized strategies" `Quick test_f14_pct;
          Alcotest.test_case "#16 bulk race" `Quick test_f16;
          Alcotest.test_case "non-concurrency fault rejected" `Quick
            test_non_concurrency_fault_rejected;
        ] );
      ( "components",
        [
          Alcotest.test_case "index sequential" `Quick test_conc_index_sequential;
          Alcotest.test_case "shard map sequential" `Quick test_shard_map_sequential;
          Alcotest.test_case "chunk store sequential" `Quick test_conc_chunks_sequential;
        ] );
      ( "linearizability",
        [ Alcotest.test_case "index linearizable" `Quick test_conc_index_linearizable ] );
      ( "rwlock",
        [
          Alcotest.test_case "spec steps and classify" `Quick test_rwlock_spec;
          Alcotest.test_case "sequential smoke" `Quick test_rwlock_sequential;
          Alcotest.test_case "model suite exhaustive" `Slow test_rwlock_model;
          Alcotest.test_case "impl on real domains" `Quick test_rwlock_impl;
        ] );
      ( "shared",
        [
          Alcotest.test_case "shard table" `Quick test_shard_table;
          Alcotest.test_case "cache lifecycle auditor" `Quick test_cache_sm;
          Alcotest.test_case "shared-store model clean" `Slow test_conc_shared_model;
          Alcotest.test_case "maintenance worker lifecycle" `Quick test_domains_worker;
        ] );
    ]
