(* Tests for the stateless model checker: classic races, deadlocks,
   exhaustive DFS soundness, replay, and the linearizability engine. *)

(* Two threads increment a counter with a non-atomic read-modify-write;
   some interleaving loses an update. *)
let racy_counter () =
  let c = Smc.Cell.make 0 in
  let body () =
    let v = Smc.Cell.get c in
    Smc.Cell.set c (v + 1)
  in
  Smc.spawn body;
  Smc.spawn body;
  ()

let racy_counter_checked () =
  let c = Smc.Cell.make 0 in
  let done_ = Smc.Cell.make 0 in
  let body () =
    let v = Smc.Cell.get c in
    Smc.Cell.set c (v + 1);
    ignore (Smc.Cell.update done_ (fun d -> d + 1))
  in
  Smc.spawn body;
  Smc.spawn body;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
  if Smc.Cell.get c <> 2 then failwith "lost update"

let safe_counter_checked () =
  let c = Smc.Cell.make 0 in
  let done_ = Smc.Cell.make 0 in
  let m = Smc.Mutex.create () in
  let body () =
    Smc.Mutex.with_lock m (fun () ->
        let v = Smc.Cell.get c in
        Smc.Cell.set c (v + 1));
    ignore (Smc.Cell.update done_ (fun d -> d + 1))
  in
  Smc.spawn body;
  Smc.spawn body;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
  if Smc.Cell.get c <> 2 then failwith "lost update"

let test_dfs_finds_lost_update () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 10_000 }) racy_counter_checked in
  match o.Smc.violation with
  | Some { kind = Smc.Assertion "lost update"; _ } -> ()
  | _ -> Alcotest.failf "expected lost update, got %a" Smc.pp_outcome o

let test_dfs_exhausts_safe_counter () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 100_000 }) safe_counter_checked in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted;
  Alcotest.(check bool) "explored multiple schedules" true (o.Smc.schedules_run > 10)

let test_dfs_no_violation_without_assert () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 10_000 }) racy_counter in
  Alcotest.(check bool) "no assertion, no violation" true (o.Smc.violation = None)

let test_random_finds_lost_update () =
  let o = Smc.explore (Smc.Random_walk { seed = 7; schedules = 2_000 }) racy_counter_checked in
  match o.Smc.violation with
  | Some { kind = Smc.Assertion _; _ } -> ()
  | _ -> Alcotest.failf "expected violation, got %a" Smc.pp_outcome o

let test_pct_finds_lost_update () =
  let o = Smc.explore (Smc.Pct { seed = 7; schedules = 2_000; depth = 3 }) racy_counter_checked in
  match o.Smc.violation with
  | Some { kind = Smc.Assertion _; _ } -> ()
  | _ -> Alcotest.failf "expected violation, got %a" Smc.pp_outcome o

let deadlock_body () =
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

let test_dfs_finds_deadlock () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 100_000 }) deadlock_body in
  match o.Smc.violation with
  | Some { kind = Smc.Deadlock _; _ } -> ()
  | _ -> Alcotest.failf "expected deadlock, got %a" Smc.pp_outcome o

let test_replay_reproduces () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 10_000 }) racy_counter_checked in
  match o.Smc.violation with
  | Some v -> (
    match Smc.replay racy_counter_checked v.Smc.schedule with
    | Some v' ->
      Alcotest.(check bool) "same kind" true (v'.Smc.kind = v.Smc.kind)
    | None -> Alcotest.fail "replay did not reproduce")
  | None -> Alcotest.fail "no violation to replay"

let test_semaphore () =
  (* Two permits, three acquirers that never release: the third blocks and
     since nobody releases, deadlock. *)
  let body () =
    let s = Smc.Semaphore.create 2 in
    let spawn_acquire () = Smc.spawn (fun () -> Smc.Semaphore.acquire s) in
    spawn_acquire ();
    spawn_acquire ();
    spawn_acquire ()
  in
  let o = Smc.explore (Smc.Dfs { max_schedules = 10_000 }) body in
  match o.Smc.violation with
  | Some { kind = Smc.Deadlock _; _ } -> ()
  | _ -> Alcotest.failf "expected deadlock, got %a" Smc.pp_outcome o

let test_semaphore_release_unblocks () =
  let body () =
    let s = Smc.Semaphore.create 1 in
    let done_ = Smc.Cell.make 0 in
    Smc.spawn (fun () ->
        Smc.Semaphore.acquire s;
        Smc.Semaphore.release s;
        ignore (Smc.Cell.update done_ (fun d -> d + 1)));
    Smc.spawn (fun () ->
        Smc.Semaphore.acquire s;
        Smc.Semaphore.release s;
        ignore (Smc.Cell.update done_ (fun d -> d + 1)))
  in
  let o = Smc.explore (Smc.Dfs { max_schedules = 100_000 }) body in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted

(* [Semaphore.release] is a scheduling point: DFS must explore a waiter
   waking between the release and the releaser's next step. Pinning the
   exhaustive schedule count for the acquire/release body above guards
   that — before release yielded, the same body exhausted at only 224
   schedules, silently skipping every such interleaving. *)
let test_semaphore_release_schedule_count () =
  let body () =
    let s = Smc.Semaphore.create 1 in
    let done_ = Smc.Cell.make 0 in
    let worker () =
      Smc.Semaphore.acquire s;
      Smc.Semaphore.release s;
      ignore (Smc.Cell.update done_ (fun d -> d + 1))
    in
    Smc.spawn worker;
    Smc.spawn worker
  in
  let o = Smc.explore (Smc.Dfs { max_schedules = 1_000_000 }) body in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted;
  Alcotest.(check int) "schedule count" 1065 o.Smc.schedules_run

let test_mutex_misuse_detected () =
  let o =
    Smc.explore
      (Smc.Dfs { max_schedules = 100 })
      (fun () ->
        let m = Smc.Mutex.create () in
        Smc.Mutex.unlock m)
  in
  match o.Smc.violation with
  | Some { kind = Smc.Assertion _; _ } -> ()
  | _ -> Alcotest.fail "expected assertion"

let test_primitives_work_outside_exploration () =
  let c = Smc.Cell.make 1 in
  Smc.Cell.set c 2;
  Alcotest.(check int) "cell" 2 (Smc.Cell.get c);
  let m = Smc.Mutex.create () in
  Smc.Mutex.with_lock m (fun () -> ());
  let hit = ref false in
  Smc.spawn (fun () -> hit := true);
  Alcotest.(check bool) "spawn runs inline" true !hit

let test_dfs_budget_respected () =
  let o = Smc.explore (Smc.Dfs { max_schedules = 5 }) racy_counter_checked in
  Alcotest.(check bool) "at most budget schedules" true (o.Smc.schedules_run <= 5);
  Alcotest.(check bool) "not exhaustive at tiny budget" false o.Smc.exhausted

let test_single_thread_no_choices () =
  (* A sequential body has exactly one schedule. *)
  let o =
    Smc.explore
      (Smc.Dfs { max_schedules = 1000 })
      (fun () ->
        let c = Smc.Cell.make 0 in
        Smc.Cell.set c 1;
        Smc.Cell.set c (Smc.Cell.get c + 1);
        if Smc.Cell.get c <> 2 then failwith "sequential arithmetic broke")
  in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None);
  Alcotest.(check int) "one schedule" 1 o.Smc.schedules_run;
  Alcotest.(check bool) "exhaustive" true o.Smc.exhausted

let test_thread_ids_distinct () =
  let o =
    Smc.explore
      (Smc.Dfs { max_schedules = 10_000 })
      (fun () ->
        let ids = Smc.Cell.make [] in
        let record () = ignore (Smc.Cell.update ids (fun l -> Smc.thread_id () :: l)) in
        Smc.spawn record;
        Smc.spawn record;
        Smc.wait_until (fun () -> List.length (Smc.Cell.peek ids) = 2);
        let l = Smc.Cell.get ids in
        if List.sort_uniq compare l <> List.sort compare l then failwith "duplicate thread id";
        if List.mem (Smc.thread_id ()) l then failwith "child shares main's id")
  in
  Alcotest.(check bool) "no violation" true (o.Smc.violation = None)

let test_exception_reported () =
  let o =
    Smc.explore (Smc.Dfs { max_schedules = 10 }) (fun () -> raise Exit)
  in
  match o.Smc.violation with
  | Some { kind = Smc.Exception _; _ } -> ()
  | _ -> Alcotest.fail "expected exception violation"

(* {2 Every exploration pinned}

   Each strategy, run over the bodies above and over every concurrency
   harness the checks use, must keep what it explores: schedule count,
   step total, exhaustion, the violation (kind, steps and schedule), the
   race-checked access count and the lock-order edges. Each group pins
   one digest over its outcomes; a mismatch prints the outcomes. *)

let render_outcome (o : Smc.outcome) =
  Printf.sprintf "%d schedules, %d steps, exhausted %b, %s, %d accesses, %d cycles, edges [%s]"
    o.Smc.schedules_run o.Smc.total_steps o.Smc.exhausted
    (match o.Smc.violation with
    | None -> "clean"
    | Some v -> Format.asprintf "%a" Smc.pp_violation v)
    o.Smc.sanitize_accesses
    (List.length o.Smc.lock_cycles)
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) o.Smc.lock_edges))

(* DFS at [dfs] schedules, then two seeds each of the random walk and
   PCT (depth 3) at 150 schedules. *)
let pinned_groups () =
  let over ?(dfs = 400) explore =
    List.map
      (fun (name, s) -> name ^ ": " ^ render_outcome (explore s))
      [
        ("dfs", Smc.Dfs { max_schedules = dfs });
        ("random/1", Smc.Random_walk { seed = 1; schedules = 150 });
        ("random/2", Smc.Random_walk { seed = 2; schedules = 150 });
        ("pct/1", Smc.Pct { seed = 1; schedules = 150; depth = 3 });
        ("pct/2", Smc.Pct { seed = 2; schedules = 150; depth = 3 });
      ]
  in
  let body name ?dfs ?sanitize b = (name, over ?dfs (fun s -> Smc.explore ?sanitize s b)) in
  let sanitized = Sanitize.default in
  let conc =
    List.concat_map
      (fun fault ->
        let n = Faults.number fault in
        [
          ( Printf.sprintf "detect #%d" n,
            over (fun s -> Conc.Conc_detect.detect s fault) );
          ( Printf.sprintf "correct #%d" n,
            over (fun s -> Conc.Conc_detect.check_correct ~sanitize:sanitized s fault) );
        ])
      Faults.
        [
          F11_locator_race;
          F12_buffer_pool_deadlock;
          F13_list_remove_race;
          F14_compaction_reclaim_race;
          F16_bulk_create_remove_race;
        ]
  in
  [
    body "racy counter" racy_counter_checked;
    body "racy counter, sanitized" ~sanitize:sanitized racy_counter_checked;
    body "safe counter" ~dfs:100_000 ~sanitize:sanitized safe_counter_checked;
    body "deadlock" ~sanitize:sanitized deadlock_body;
  ]
  @ conc
  @ [
      ( "conc_shared",
        List.map
          (fun r ->
            r.Conc.Conc_shared.name ^ ": " ^ render_outcome r.Conc.Conc_shared.outcome)
          (Conc.Conc_shared.run ~budget:200 ()) );
      ( "rwlock model",
        List.map
          (fun r ->
            r.Conc.Rwlock.Check.name ^ ": " ^ render_outcome r.Conc.Rwlock.Check.outcome)
          (Conc.Rwlock.Check.model ~budget:300 ()) );
    ]

let pinned_digests =
  [
    ("racy counter", "2565b91214e307d072394a3b952d25bf");
    ("racy counter, sanitized", "55ec3b29aede35f6622be05adb4ac44f");
    ("safe counter", "46865982f78581350f6601f7447828de");
    ("deadlock", "851d0ab8ae1144268bd4036833fbe89f");
    ("detect #11", "cee34c373de7f391cc77e9401980d291");
    ("correct #11", "201d5e5ff12cbce75f53a6ab3fa1827d");
    ("detect #12", "47446a415c24c1628110a45626360e2b");
    ("correct #12", "66933d6ff94e1cf230af8652fb360c91");
    ("detect #13", "c3e77550da3ee6ee13c8bcf34660b0a6");
    ("correct #13", "13489b91ee4ccb2317b894b46cb76494");
    ("detect #14", "92eefc2aa69a35d15858e92969885bac");
    ("correct #14", "e80500e6ea15e2e6356b0cd2027c21b6");
    ("detect #16", "fbb5af8dad5e229db4a60a171e734ae5");
    ("correct #16", "04fef364cb424ac518f05a2cc11692c7");
    ("conc_shared", "570084f9da0581dbad1ebb9846462086");
    ("rwlock model", "5f77c708e72a850d8400166a81d088fd");
  ]

let test_explorations_pinned () =
  Faults.disable_all ();
  let groups = pinned_groups () in
  let actual =
    List.map
      (fun (name, lines) -> (name, Digest.to_hex (Digest.string (String.concat "\n" lines))))
      groups
  in
  List.iter
    (fun (name, lines) ->
      let digest = List.assoc name actual in
      if List.assoc_opt name pinned_digests <> Some digest then begin
        Printf.printf "%s -> %s\n" name digest;
        List.iter (Printf.printf "  %s\n") lines
      end)
    groups;
  Alcotest.(check (list (pair string string))) "digests" pinned_digests actual

(* {2 Smc.join costs what the counter-cell join costs}

   One three-thread body, written once with [Smc.join] and once with the
   hand-rolled counter cell: a locked write, a nested (b, then a) lock
   pair, and a plain read of a cell published before the spawns. *)
let join_threads () =
  let a = Smc.Mutex.create () and b = Smc.Mutex.create () in
  let c = Smc.Cell.make 0 and published = Smc.Cell.make 1 in
  let write () = Smc.Mutex.with_lock a (fun () -> Smc.Cell.set c 1) in
  let nested () = Smc.Mutex.with_lock b (fun () -> Smc.Mutex.with_lock a ignore) in
  (c, [ write; nested; (fun () -> ignore (Smc.Cell.get published)) ])

let with_join () =
  let c, threads = join_threads () in
  Smc.join threads;
  if Smc.Cell.get c <> 1 then failwith "write lost"

let with_counter_cell () =
  let c, threads = join_threads () in
  let done_ = Smc.Cell.make 0 in
  List.iter
    (fun f ->
      Smc.spawn (fun () ->
          f ();
          ignore (Smc.Cell.update done_ (fun d -> d + 1))))
    threads;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 3);
  if Smc.Cell.get c <> 1 then failwith "write lost"

let test_join_matches_counter_cell () =
  let explore body =
    Smc.explore ~sanitize:Sanitize.default (Smc.Dfs { max_schedules = 5_000 }) body
  in
  let reference = explore with_counter_cell and joined = explore with_join in
  Alcotest.(check bool) "reference clean" true (reference.Smc.violation = None);
  Alcotest.(check bool) "reference race-checked" true (reference.Smc.sanitize_accesses > 0);
  Alcotest.(check bool) "reference has lock edges" true (reference.Smc.lock_edges <> []);
  Alcotest.(check string) "same outcome" (render_outcome reference) (render_outcome joined)

(* Determinism: replaying any recorded schedule of a failing exploration
   reproduces a violation of the same kind, repeatedly. *)
let prop_replay_deterministic =
  QCheck.Test.make ~name:"replay is deterministic" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let o =
        Smc.explore (Smc.Random_walk { seed; schedules = 500 }) racy_counter_checked
      in
      match o.Smc.violation with
      | None -> true
      | Some v -> (
        match
          ( Smc.replay racy_counter_checked v.Smc.schedule,
            Smc.replay racy_counter_checked v.Smc.schedule )
        with
        | Some a, Some b -> a.Smc.kind = v.Smc.kind && b.Smc.kind = v.Smc.kind
        | _ -> false))

(* {2 Linearizability} *)

(* A fetch-and-add counter: each event carries its operation and the
   value it returned, and the model admits it only when that value is
   what the counter would have returned. *)
type counter_op = Incr | Read

let counter_step state (op, result) =
  if result <> state then None
  else match op with Incr -> Some (state + 1) | Read -> Some state

let ev invoked returned op result = { Lincheck.invoked; returned; act = (op, result) }

let counter_verdict ?budget h = fst (Lincheck.search ?budget ~init:0 ~step:counter_step h)

let linearizable h = counter_verdict h = Lincheck.Linearizable

let test_linearizable_history_accepted () =
  (* Sequential: incr()=0, incr()=1, read()=2. *)
  let h = [ ev 0 1 Incr 0; ev 2 3 Incr 1; ev 4 5 Read 2 ] in
  Alcotest.(check bool) "linearizable" true (linearizable h)

let test_overlapping_history_accepted () =
  (* Two overlapping increments may linearize in either order. *)
  let h = [ ev 0 3 Incr 1; ev 1 2 Incr 0 ] in
  Alcotest.(check bool) "linearizable" true (linearizable h)

let test_lost_update_history_rejected () =
  (* Both increments return 0: no sequential counter does that. *)
  let h = [ ev 0 2 Incr 0; ev 1 3 Incr 0 ] in
  Alcotest.(check bool) "not linearizable" true (counter_verdict h = Lincheck.Rejected)

let test_realtime_order_respected () =
  (* read()=0 strictly after incr()=0 completed is not linearizable. *)
  let h = [ ev 0 1 Incr 0; ev 2 3 Read 0 ] in
  Alcotest.(check bool) "stale read rejected" true (counter_verdict h = Lincheck.Rejected)

let test_tiny_budget_gives_up () =
  let h = [ ev 0 3 Incr 1; ev 1 2 Incr 0; ev 4 5 Read 2 ] in
  Alcotest.(check bool) "default budget decides" true (linearizable h);
  Alcotest.(check bool) "1-node budget gives up" true
    (counter_verdict ~budget:1 h = Lincheck.Gave_up)

(* Threads under Smc record into a plain list, timestamped by a plain
   counter: one domain runs every thread, and ticks are not scheduling
   points, so each interval brackets exactly the operation's steps. *)
let recorded_incrs ~faa =
  let clock = ref 0 in
  let tick () =
    let t = !clock in
    clock := t + 1;
    t
  in
  let history = ref [] in
  let done_ = Smc.Cell.make 0 in
  let thread () =
    let invoked = tick () in
    let result = faa () in
    let returned = tick () in
    history := ev invoked returned Incr result :: !history;
    ignore (Smc.Cell.update done_ (fun d -> d + 1))
  in
  Smc.spawn thread;
  Smc.spawn thread;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
  if not (linearizable !history) then failwith "not linearizable"

let test_recorder_under_smc () =
  (* A mutex-protected fetch-and-add is linearizable under every
     interleaving. *)
  let body () =
    let c = Smc.Cell.make 0 in
    let m = Smc.Mutex.create () in
    recorded_incrs ~faa:(fun () ->
        Smc.Mutex.with_lock m (fun () ->
            let v = Smc.Cell.get c in
            Smc.Cell.set c (v + 1);
            v))
  in
  let o = Smc.explore (Smc.Dfs { max_schedules = 200_000 }) body in
  Alcotest.(check bool) "all interleavings linearizable" true (o.Smc.violation = None)

let test_recorder_detects_racy_faa () =
  (* Unprotected fetch-and-add: some interleaving yields a non-linearizable
     history. *)
  let body () =
    let c = Smc.Cell.make 0 in
    recorded_incrs ~faa:(fun () ->
        let v = Smc.Cell.get c in
        Smc.Cell.set c (v + 1);
        v)
  in
  let o = Smc.explore (Smc.Dfs { max_schedules = 200_000 }) body in
  match o.Smc.violation with
  | Some { kind = Smc.Assertion "not linearizable"; _ } -> ()
  | _ -> Alcotest.failf "expected non-linearizable history, got %a" Smc.pp_outcome o

(* {3 The engine against a brute-force reference}

   Random register histories: up to 7 reads and writes of small values
   with overlapping intervals (ties included) and one pending event
   ([returned = max_int]). The reference enumerates every permutation,
   keeps those that respect real-time order (a event that returned
   before another was invoked comes first) and replays each through the
   register; the engine must agree with it on every history. *)
type reg = Write of int | Read_back of int

let reg_step s = function Write v -> Some v | Read_back v -> if v = s then Some s else None

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y != x) l)))
      l

let respects_real_time order =
  let rec go = function
    | [] -> true
    | a :: rest ->
      List.for_all (fun b -> not (b.Lincheck.returned < a.Lincheck.invoked)) rest && go rest
  in
  go order

let reference_linearizable history =
  List.exists
    (fun order ->
      respects_real_time order
      && Option.is_some
           (List.fold_left
              (fun st e -> Option.bind st (fun s -> reg_step s e.Lincheck.act))
              (Some 0) order))
    (permutations history)

let gen_history =
  let open QCheck.Gen in
  let gen_event =
    map3
      (fun invoked len act -> { Lincheck.invoked; returned = invoked + len; act })
      (int_bound 12) (int_range 1 6)
      (oneof [ map (fun v -> Write v) (int_bound 2); map (fun v -> Read_back v) (int_bound 2) ])
  in
  int_range 1 7 >>= fun n ->
  list_repeat n gen_event >>= fun evs ->
  int_bound (n - 1) >|= fun pending ->
  List.mapi (fun i e -> if i = pending then { e with Lincheck.returned = max_int } else e) evs

let pp_history h =
  String.concat "; "
    (List.map
       (fun e ->
         Printf.sprintf "[%d,%s] %s" e.Lincheck.invoked
           (if e.Lincheck.returned = max_int then "pending" else string_of_int e.Lincheck.returned)
           (match e.Lincheck.act with
           | Write v -> Printf.sprintf "write %d" v
           | Read_back v -> Printf.sprintf "read %d" v))
       h)

let engine_linearizable h = fst (Lincheck.search ~init:0 ~step:reg_step h) = Lincheck.Linearizable

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches brute-force reference" ~count:300
    (QCheck.make ~print:pp_history gen_history)
    (fun h -> engine_linearizable h = reference_linearizable h)

(* The property has teeth only if the generator yields both verdicts. *)
let test_reference_sees_both_verdicts () =
  let hs = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:300 gen_history in
  let accepted = List.length (List.filter reference_linearizable hs) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d accepted" accepted (List.length hs))
    true
    (accepted > 0 && accepted < List.length hs)

let () =
  Alcotest.run "smc"
    [
      ( "exploration",
        [
          Alcotest.test_case "dfs finds lost update" `Quick test_dfs_finds_lost_update;
          Alcotest.test_case "dfs exhausts safe counter" `Quick test_dfs_exhausts_safe_counter;
          Alcotest.test_case "no assert, no violation" `Quick test_dfs_no_violation_without_assert;
          Alcotest.test_case "random finds lost update" `Quick test_random_finds_lost_update;
          Alcotest.test_case "pct finds lost update" `Quick test_pct_finds_lost_update;
          Alcotest.test_case "dfs finds deadlock" `Quick test_dfs_finds_deadlock;
          Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "dfs budget respected" `Quick test_dfs_budget_respected;
          Alcotest.test_case "single thread, one schedule" `Quick test_single_thread_no_choices;
          Alcotest.test_case "thread ids distinct" `Quick test_thread_ids_distinct;
          Alcotest.test_case "exception reported" `Quick test_exception_reported;
          Alcotest.test_case "every exploration pinned" `Quick test_explorations_pinned;
          Alcotest.test_case "join costs the counter-cell join" `Quick
            test_join_matches_counter_cell;
          QCheck_alcotest.to_alcotest prop_replay_deterministic;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "semaphore exhaustion deadlock" `Quick test_semaphore;
          Alcotest.test_case "semaphore release unblocks" `Quick test_semaphore_release_unblocks;
          Alcotest.test_case "semaphore release is a scheduling point" `Quick
            test_semaphore_release_schedule_count;
          Alcotest.test_case "mutex misuse" `Quick test_mutex_misuse_detected;
          Alcotest.test_case "works outside exploration" `Quick
            test_primitives_work_outside_exploration;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "linearizable accepted" `Quick test_linearizable_history_accepted;
          Alcotest.test_case "overlapping accepted" `Quick test_overlapping_history_accepted;
          Alcotest.test_case "lost update rejected" `Quick test_lost_update_history_rejected;
          Alcotest.test_case "realtime order" `Quick test_realtime_order_respected;
          Alcotest.test_case "recorder: locked faa linearizable" `Quick test_recorder_under_smc;
          Alcotest.test_case "recorder: racy faa caught" `Quick test_recorder_detects_racy_faa;
          Alcotest.test_case "tiny budget gives up" `Quick test_tiny_budget_gives_up;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          Alcotest.test_case "reference sees both verdicts" `Quick
            test_reference_sees_both_verdicts;
        ] );
    ]
