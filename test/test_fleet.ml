(* Tests for the fleet layer: placement, replication, the fault-tolerant
   request plane (health tracking, retry/backoff, quorum commit, failover
   reads with read-repair), node crash vs node loss, repair, and the
   S3-level durability property (data survives up to replication-1 node
   losses between repairs, and any number of crashes). *)

open Util

(* Roomier disks than the store's crash-corner-case geometry: the fleet
   property keeps six shards times three replicas per node, and capacity
   planning (not GC pressure) is what keeps real nodes from running full. *)
let config =
  {
    Fleet.nodes = 5;
    replication = 3;
    store =
      {
        Store.Default.test_config with
        Store.Default.disk = { Disk.extent_count = 16; pages_per_extent = 16; page_size = 64 };
      };
  }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fleet error: %a" Fleet.pp_error e

(* All-replica acknowledgement: the strongest write quorum, matching the
   fleet's pre-quorum behaviour. *)
let all_replicas = { Fleet.default_ft with Fleet.write_quorum = Some config.Fleet.replication }

let test_placement_deterministic_and_spread () =
  let f = Fleet.create config in
  let p = Fleet.placement f "shard-x" in
  Alcotest.(check int) "replication factor" 3 (List.length p);
  Alcotest.(check (list int)) "deterministic" p (Fleet.placement f "shard-x");
  Alcotest.(check int) "distinct nodes" 3 (List.length (List.sort_uniq compare p));
  (* different keys land on different placements eventually *)
  let placements =
    List.init 20 (fun i -> Fleet.placement f (Printf.sprintf "key-%d" i))
  in
  Alcotest.(check bool) "spread" true (List.length (List.sort_uniq compare placements) > 1)

let test_put_get_replicated () =
  let f = Fleet.create config in
  let ack = ok (Fleet.put f ~key:"s" ~value:"data") in
  Alcotest.(check int) "all replicas acked" 3 ack.Fleet.replicas;
  Alcotest.(check (list int)) "none lagging" [] ack.Fleet.lagging;
  Alcotest.(check (option string)) "get" (Some "data") (ok (Fleet.get f ~key:"s"));
  Alcotest.(check int) "fully replicated" 3 (Fleet.replica_count f ~key:"s");
  Alcotest.(check int) "nothing dirty" 0 (Fleet.dirty_count f);
  ok (Fleet.delete f ~key:"s");
  Alcotest.(check (option string)) "deleted" None (ok (Fleet.get f ~key:"s"))

let test_put_many_replicated () =
  let f = Fleet.create config in
  let ops = List.init 6 (fun i -> (Printf.sprintf "pk%d" i, Printf.sprintf "pv%d" i)) in
  ok (Fleet.put_many f ops);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("get " ^ k) (Some v) (ok (Fleet.get f ~key:k));
      Alcotest.(check int) ("replicated " ^ k) 3 (Fleet.replica_count f ~key:k))
    ops;
  Alcotest.(check int) "counted once" 1 (Obs.counter_value (Fleet.obs f) "fleet.put_many")

let test_put_many_matches_sequential () =
  let ops = List.init 8 (fun i -> (Printf.sprintf "mk%d" i, Printf.sprintf "mv%d" i)) in
  let fb = Fleet.create config in
  ok (Fleet.put_many fb ops);
  let fs = Fleet.create config in
  List.iter (fun (k, v) -> ignore (ok (Fleet.put fs ~key:k ~value:v))) ops;
  List.iter
    (fun (k, _) ->
      Alcotest.(check (option string)) ("batch = sequential for " ^ k)
        (ok (Fleet.get fs ~key:k))
        (ok (Fleet.get fb ~key:k));
      Alcotest.(check int) ("same replica count for " ^ k)
        (Fleet.replica_count fs ~key:k)
        (Fleet.replica_count fb ~key:k))
    ops

let test_node_failed_carries_store_error () =
  let f = Fleet.create config in
  (* 16 extents x 16 pages x 64 bytes = 16 KiB per node: this cannot fit. *)
  let huge = String.make 50_000 'x' in
  (match Fleet.put f ~key:"huge" ~value:huge with
  | Error (Fleet.Node_failed { node; error = Store.Default.No_space }) ->
    (* The structured payload must not have changed the rendered message. *)
    let msg =
      Format.asprintf "%a" Fleet.pp_error
        (Fleet.Node_failed { node; error = Store.Default.No_space })
    in
    Alcotest.(check string) "pp output stable"
      (Printf.sprintf "node %d failed: out of space" node)
      msg
  | Ok _ -> Alcotest.fail "oversized put cannot succeed"
  | Error e -> Alcotest.failf "expected structured No_space, got %a" Fleet.pp_error e);
  match Fleet.put_many f [ ("small", "v"); ("huge2", huge) ] with
  | Error (Fleet.Node_failed { error = Store.Default.No_space; _ }) -> ()
  | Ok () -> Alcotest.fail "oversized batch cannot succeed"
  | Error e -> Alcotest.failf "expected structured No_space, got %a" Fleet.pp_error e

let test_survives_any_single_crash () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"s" ~value:"durable"));
  let rng = Rng.create 3L in
  (* crash every node once: acknowledged data is durable per replica *)
  for node = 0 to Fleet.node_count f - 1 do
    Fleet.crash_node f ~rng ~node
  done;
  Alcotest.(check (option string)) "survives crashes" (Some "durable") (ok (Fleet.get f ~key:"s"))

let test_survives_node_loss_with_repair () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"s" ~value:"replicated"));
  (match Fleet.placement f "s" with
  | victim :: _ ->
    Fleet.destroy_node f ~node:victim;
    Alcotest.(check int) "one replica lost" 2 (Fleet.replica_count f ~key:"s")
  | [] -> Alcotest.fail "no placement");
  let report = ok (Fleet.repair f) in
  Alcotest.(check (option string)) "still readable" (Some "replicated")
    (ok (Fleet.get f ~key:"s"));
  Alcotest.(check int) "one replica re-created" 1 report.Fleet.shards_repaired;
  Alcotest.(check int) "none failed" 0 report.Fleet.shards_failed;
  Alcotest.(check int) "bytes moved" (String.length "replicated") report.Fleet.bytes_moved;
  Alcotest.(check int) "fully replicated again" 3 (Fleet.replica_count f ~key:"s")

let test_repair_idempotent () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"a" ~value:"1"));
  ignore (ok (Fleet.put f ~key:"b" ~value:"2"));
  let r1 = ok (Fleet.repair f) in
  Alcotest.(check int) "nothing to repair" 0 r1.Fleet.shards_repaired;
  Alcotest.(check int) "scanned all" 2 r1.Fleet.shards_scanned

(* {2 Fault-tolerant request plane} *)

(* Acceptance pin: a transient fault on one replica no longer fails
   Fleet.put — the retry path absorbs it. Every extent of one placement
   node is armed to fail once, so each retry burns at most one armed
   extent; a generous retry budget guarantees the attempt eventually runs
   clean. *)
let test_transient_fault_absorbed () =
  let ft = { Fleet.default_ft with Fleet.max_retries = 40 } in
  let f = Fleet.create ~ft config in
  (match Fleet.placement f "t" with
  | victim :: _ ->
    let disk = Fleet.node_disk f ~node:victim in
    for extent = 0 to config.Fleet.store.Store.Default.disk.Disk.extent_count - 1 do
      Disk.fail_once disk ~extent
    done
  | [] -> Alcotest.fail "no placement");
  let ack = ok (Fleet.put f ~key:"t" ~value:"absorbed") in
  Alcotest.(check int) "all replicas acked despite the fault" 3 ack.Fleet.replicas;
  Alcotest.(check bool) "the retry path ran" true
    (Obs.counter_value (Fleet.obs f) "fleet.retry" > 0);
  Alcotest.(check (option string)) "readable" (Some "absorbed") (ok (Fleet.get f ~key:"t"));
  (* the absorbed fault leaves no health scar: success resets the detector *)
  List.iter
    (fun node ->
      Alcotest.(check bool) "node available" true (Fleet.node_available f ~node))
    (Fleet.placement f "t")

(* Satellite (a): the partial-failure leak. A put that loses one replica
   mid-write acknowledges at quorum, counts fleet.partial_write, records
   the key in the dirty set — and repair provably heals it back to full
   replication with the new value. *)
let test_partial_write_recorded_and_repaired () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"p" ~value:"old"));
  let victim = List.nth (Fleet.placement f "p") 2 in
  let disk = Fleet.node_disk f ~node:victim in
  for extent = 0 to config.Fleet.store.Store.Default.disk.Disk.extent_count - 1 do
    Disk.fail_permanently disk ~extent
  done;
  (* overwrite: two replicas take the new value, the victim fails hard *)
  let ack = ok (Fleet.put f ~key:"p" ~value:"new") in
  Alcotest.(check int) "quorum acked" 2 ack.Fleet.replicas;
  Alcotest.(check (list int)) "victim lagging" [ victim ] ack.Fleet.lagging;
  Alcotest.(check bool) "partial write counted" true
    (Obs.counter_value (Fleet.obs f) "fleet.partial_write" > 0);
  Alcotest.(check bool) "quorum ack counted" true
    (Obs.counter_value (Fleet.obs f) "fleet.quorum_ack" > 0);
  Alcotest.(check bool) "breaker tripped" true
    (Obs.counter_value (Fleet.obs f) "fleet.breaker_open" > 0);
  Alcotest.(check (list string)) "key recorded dirty" [ "p" ] (Fleet.dirty_keys f);
  Alcotest.check
    (Alcotest.testable
       (fun fmt h -> Format.pp_print_string fmt (match h with
          | Fleet.Healthy -> "healthy" | Fleet.Suspect -> "suspect" | Fleet.Down -> "down"))
       ( = ))
    "victim down" Fleet.Down (Fleet.health f ~node:victim);
  (* the medium is healed; a reboot lifts the scheduler's extent
     quarantines, then repair drains the debt *)
  Disk.heal_all disk;
  Fleet.crash_node f ~rng:(Rng.create 11L) ~node:victim;
  let report = ok (Fleet.repair f) in
  Alcotest.(check int) "victim re-replicated" 1 report.Fleet.shards_repaired;
  Alcotest.(check int) "dirty set drained" 0 (Fleet.dirty_count f);
  Alcotest.(check int) "fully replicated" 3 (Fleet.replica_count f ~key:"p");
  Alcotest.(check (option string)) "victim holds the new value" (Some "new")
    (match Fleet.peek f ~node:victim ~key:"p" with
    | Ok v -> v
    | Error e -> Alcotest.failf "peek: %a" Store.Default.pp_error e);
  (* repair is the breaker's heal path: the victim is back in rotation *)
  Alcotest.(check bool) "breaker re-closed" true (Fleet.node_available f ~node:victim)

(* Below quorum the put must fail — but the replicas already written are
   recorded as dirty, not leaked. *)
let test_below_quorum_fails_but_records_debt () =
  let ft = { Fleet.default_ft with Fleet.write_quorum = Some 3 } in
  let f = Fleet.create ~ft config in
  ignore (ok (Fleet.put f ~key:"q" ~value:"old"));
  let victim = List.nth (Fleet.placement f "q") 2 in
  let disk = Fleet.node_disk f ~node:victim in
  for extent = 0 to config.Fleet.store.Store.Default.disk.Disk.extent_count - 1 do
    Disk.fail_permanently disk ~extent
  done;
  (match Fleet.put f ~key:"q" ~value:"new" with
  | Ok _ -> Alcotest.fail "all-replica quorum cannot be met with a dead node"
  | Error (Fleet.Node_failed { node; _ }) ->
    Alcotest.(check int) "failure names the victim" victim node
  | Error e -> Alcotest.failf "expected Node_failed, got %a" Fleet.pp_error e);
  Alcotest.(check (list string)) "partial replicas recorded" [ "q" ] (Fleet.dirty_keys f);
  Disk.heal_all disk;
  Fleet.crash_node f ~rng:(Rng.create 12L) ~node:victim;
  Fleet.heal_node f ~node:victim;
  ignore (ok (Fleet.repair f));
  Alcotest.(check int) "repair converged" 0 (Fleet.dirty_count f);
  Alcotest.(check int) "fully replicated" 3 (Fleet.replica_count f ~key:"q")

(* Satellite (c): the health state machine. Healthy -> Suspect on an
   exhausted transient attempt, Suspect -> Down after [down_after]
   consecutive failures, Down skipped on reads, breaker re-closed by
   heal_node. Driven with always-transient random faults so every probe
   fails deterministically. *)
let test_health_state_machine () =
  let ft =
    { Fleet.write_quorum = Some 1; max_retries = 0; down_after = 3; backoff_base = 4;
      backoff_max = 64 }
  in
  let small = { config with Fleet.nodes = 3 } in
  let f = Fleet.create ~ft small in
  ignore (ok (Fleet.put f ~key:"h" ~value:"v"));
  let victim = List.hd (Fleet.placement f "h") in
  let disk = Fleet.node_disk f ~node:victim in
  Disk.arm_random_faults disk ~rng:(Rng.create 9L) ~transient_prob:1.0 ~permanent_prob:0.0;
  let health () = Fleet.health f ~node:victim in
  let put i =
    ignore (ok (Fleet.put f ~key:"h" ~value:(Printf.sprintf "v%d" i)))
  in
  put 1;
  Alcotest.(check bool) "suspect after first failure" true (health () = Fleet.Suspect);
  Alcotest.(check bool) "backoff pending" true (Fleet.node_probe_in f ~node:victim > 0);
  (* while backed off, the node is not probed: its fault counter freezes *)
  let before = Disk.injected_failures disk in
  put 2;
  Alcotest.(check int) "not probed while backed off" before (Disk.injected_failures disk);
  (* expire the backoff and probe twice more: Suspect hardens into Down *)
  let probe i =
    while Fleet.node_probe_in f ~node:victim > 0 do Fleet.tick f done;
    put i
  in
  probe 3;
  Alcotest.(check bool) "still suspect" true (health () = Fleet.Suspect);
  probe 4;
  Alcotest.(check bool) "down after down_after failures" true (health () = Fleet.Down);
  Alcotest.(check int) "breaker counted once" 1
    (Obs.counter_value (Fleet.obs f) "fleet.breaker_open");
  (* Down is skipped on reads: the get succeeds without touching the disk *)
  let before = Disk.injected_failures disk in
  (match ok (Fleet.get f ~key:"h") with
  | Some _ -> ()
  | None -> Alcotest.fail "live replicas must serve the key");
  Alcotest.(check int) "down node skipped on read" before (Disk.injected_failures disk);
  (* heal: breaker re-closes, the node serves again *)
  Disk.disarm_random_faults disk;
  Fleet.heal_node f ~node:victim;
  Alcotest.(check bool) "healthy after heal" true (health () = Fleet.Healthy);
  ignore (ok (Fleet.repair f));
  Alcotest.(check int) "repair restored the victim" 3 (Fleet.replica_count f ~key:"h");
  ignore (ok (Fleet.put f ~key:"h" ~value:"after"));
  Alcotest.(check bool) "stays healthy on success" true (health () = Fleet.Healthy)

(* Satellite (c): backoff schedule is deterministic under a fixed seed —
   two fleets driven identically observe identical probe delays. *)
let test_backoff_deterministic () =
  let ft = { Fleet.default_ft with Fleet.max_retries = 0; down_after = 100 } in
  let run () =
    let f = Fleet.create ~ft { config with Fleet.nodes = 3 } in
    ignore (ok (Fleet.put f ~key:"b" ~value:"v"));
    let victim = List.hd (Fleet.placement f "b") in
    let disk = Fleet.node_disk f ~node:victim in
    Disk.arm_random_faults disk ~rng:(Rng.create 7L) ~transient_prob:1.0 ~permanent_prob:0.0;
    List.init 5 (fun i ->
        while Fleet.node_probe_in f ~node:victim > 0 do Fleet.tick f done;
        ignore (ok (Fleet.put f ~key:"b" ~value:(string_of_int i)));
        Fleet.node_probe_in f ~node:victim)
  in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "identical probe schedule" a b;
  (* and the schedule really backs off: delays are non-decreasing up to the cap *)
  let rec non_decreasing = function
    | x :: (y :: _ as rest) -> x <= y && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "exponential backoff" true (non_decreasing a)

(* Deletes fail fast when a placement is unavailable (a partial tombstone
   would let repair resurrect the shard). *)
let test_delete_requires_all_replicas () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"d" ~value:"v"));
  let victim = List.hd (Fleet.placement f "d") in
  let disk = Fleet.node_disk f ~node:victim in
  for extent = 0 to config.Fleet.store.Store.Default.disk.Disk.extent_count - 1 do
    Disk.fail_permanently disk ~extent
  done;
  ignore (Fleet.put f ~key:"d" ~value:"v2") (* trips the breaker on the victim *);
  (match Fleet.delete f ~key:"d" with
  | Error (Fleet.Quorum_not_met _) -> ()
  | Ok () -> Alcotest.fail "delete must not acknowledge with a replica down"
  | Error e -> Alcotest.failf "expected Quorum_not_met, got %a" Fleet.pp_error e);
  Disk.heal_all disk;
  Fleet.crash_node f ~rng:(Rng.create 13L) ~node:victim;
  Fleet.heal_node f ~node:victim;
  ok (Fleet.delete f ~key:"d");
  Alcotest.(check (option string)) "deleted" None (ok (Fleet.get f ~key:"d"))

(* Failover read with read-repair: a replica that lost the shard is
   re-replicated inline by the next get that fails over past it. *)
let test_get_failover_and_read_repair () =
  let f = Fleet.create config in
  ignore (ok (Fleet.put f ~key:"r" ~value:"v"));
  let victim = List.hd (Fleet.placement f "r") in
  Fleet.destroy_node f ~node:victim;
  Alcotest.(check int) "one replica lost" 2 (Fleet.replica_count f ~key:"r");
  Alcotest.(check (option string)) "failover read" (Some "v") (ok (Fleet.get f ~key:"r"));
  Alcotest.(check bool) "failover counted" true
    (Obs.counter_value (Fleet.obs f) "fleet.get_failover" > 0);
  Alcotest.(check bool) "read repair counted" true
    (Obs.counter_value (Fleet.obs f) "fleet.read_repair" > 0);
  Alcotest.(check int) "read repair restored the replica" 3 (Fleet.replica_count f ~key:"r")

let test_ft_config_validation () =
  let expect_invalid name ft =
    match Fleet.create ~ft config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "zero quorum" { Fleet.default_ft with Fleet.write_quorum = Some 0 };
  expect_invalid "quorum beyond replication"
    { Fleet.default_ft with Fleet.write_quorum = Some (config.Fleet.replication + 1) };
  expect_invalid "negative retries" { Fleet.default_ft with Fleet.max_retries = -1 };
  expect_invalid "zero down_after" { Fleet.default_ft with Fleet.down_after = 0 };
  Alcotest.(check int) "majority quorum by default" 2
    (Fleet.write_quorum (Fleet.create config));
  Alcotest.(check int) "explicit quorum respected" 3
    (Fleet.write_quorum (Fleet.create ~ft:all_replicas config))

(* Satellite (b): enabling the fleet's retry path must not mask fault #5
   (reclamation forgets chunks after a transient read error) from the
   single-node conformance harness — the retries live in Fleet, above the
   store the harness drives, so the transient-read-error injection still
   surfaces there. *)
let test_f5_still_detected_with_retries () =
  Faults.reset_counters ();
  let r =
    Lfm.Detect.detect ~max_sequences:500 ~minimize:false ~seed:5
      Faults.F5_reclaim_forgets_on_read_error
  in
  Alcotest.(check bool) "#5 still detected" true r.Lfm.Detect.found

(* The durability property the paper's section 2.2 appeals to: acknowledged
   data survives any number of node crashes plus up to replication-1 node
   losses between repairs. Run at the strongest quorum (every replica acks)
   so replication-1 losses can never remove the last durable copy. *)
let prop_fleet_durability =
  QCheck.Test.make ~name:"fleet durability under crashes and bounded losses" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = Fleet.create ~ft:all_replicas config in
      let model = Model.Kv_model.create () in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
      let losses_since_repair = ref 0 in
      let ok' = function
        | Ok v -> v
        | Error e -> QCheck.Test.fail_reportf "fleet: %a" Fleet.pp_error e
      in
      for _ = 1 to 40 do
        let key = Rng.pick rng keys in
        match Rng.int rng 8 with
        | 0 | 1 | 2 -> (
          let value = Bytes.to_string (Rng.bytes rng (Rng.int rng 100)) in
          match Fleet.put f ~key ~value with
          | Ok _ -> Model.Kv_model.put model ~key ~value
          | Error _ -> () (* a full replica rejected the put: not acknowledged *))
        | 3 ->
          ok' (Fleet.delete f ~key);
          Model.Kv_model.delete model ~key
        | 4 | 5 ->
          let node = Rng.int rng (Fleet.node_count f) in
          Fleet.crash_node f ~rng ~node
        | 6 ->
          if !losses_since_repair < config.Fleet.replication - 1 then begin
            Fleet.destroy_node f ~node:(Rng.int rng (Fleet.node_count f));
            incr losses_since_repair
          end
        | _ ->
          ignore (ok' (Fleet.repair f));
          losses_since_repair := 0
      done;
      ignore (ok' (Fleet.repair f));
      Array.for_all
        (fun key ->
          match Fleet.get f ~key with
          | Ok v -> v = Model.Kv_model.get model ~key
          | Error _ -> false)
        keys)

(* Chaos campaign 1375, minimised to 13 of its 40 ops. Two destroy ops
   leave nodes 0 and 1 available but empty, and armed faults trip node
   4's breaker; s02, s03 and s05 are placed on those three nodes, so no
   local scan lists them and the scan used to answer without these
   acknowledged keys. It must fail as unavailable instead. *)
let test_scan_over_replaced_nodes () =
  Faults.disable_all ();
  let open Experiments.Chaos in
  let ops =
    [
      Arm_faults
        { node = 4; transient = 0.22000000000000003; permanent = 0.01; seed = 450586 };
      Put { key = "s08"; value = "v4.845" };
      Repair;
      Put_many
        [ ("s03", "v130.892"); ("s09", "v131.27"); ("s04", "v132.718"); ("s02", "v133.908") ];
      Put { key = "s05"; value = "v14.504" };
      Repair;
      Destroy { node = 0 };
      Put { key = "s07"; value = "v17.623" };
      Destroy { node = 1 };
      Put { key = "s08"; value = "v19.618" };
      Put { key = "s01"; value = "v25.462" };
      Put { key = "s00"; value = "v26.18" };
      Scan { lo = None; hi = Some "s06" };
    ]
  in
  let violations, _, _ = run_ops ~seed:1375 ops in
  Alcotest.(check (list string)) "no violation" []
    (List.map (Format.asprintf "%a" pp_violation) violations)

(* A repair pass that could not see every copy must leave the replaced
   marks set. Two of a key's placements are destroyed, so the third holds
   its only copy; [blind] keeps the repair pass from listing or reading the
   key there. Once that node's breaker opens, no available node can list
   the key, so the scan must fail rather than answer without it. *)
let test_scan_after_blind_repair blind () =
  Faults.disable_all ();
  let f = Fleet.create ~ft:all_replicas config in
  ignore (ok (Fleet.put f ~key:"k" ~value:"only"));
  match Fleet.placement f "k" with
  | [ a; b; c ] ->
    Fleet.destroy_node f ~node:a;
    Fleet.destroy_node f ~node:b;
    let unblind = blind f ~node:c in
    ignore (ok (Fleet.repair f));
    unblind ();
    let disk = Fleet.node_disk f ~node:c in
    for extent = 0 to config.Fleet.store.Store.Default.disk.Disk.extent_count - 1 do
      Disk.fail_permanently disk ~extent
    done;
    let on_c =
      List.find
        (fun key -> List.mem c (Fleet.placement f key))
        (List.init 16 (Printf.sprintf "j%02d"))
    in
    ignore (Fleet.put f ~key:on_c ~value:"trip");
    Alcotest.(check bool) "breaker open" false (Fleet.node_available f ~node:c);
    (match Fleet.scan f () with
    | Error (Fleet.No_live_replica _) -> ()
    | Ok items ->
      Alcotest.failf "scan answered without k: [%s]" (String.concat "; " (List.map fst items))
    | Error e -> Alcotest.failf "expected No_live_replica, got %a" Fleet.pp_error e)
  | _ -> Alcotest.fail "expected three placements"

(* The node is out of service for the pass: its listing fails. *)
let list_fails f ~node =
  let store = Fleet.node_store f ~node in
  (match Store.Default.remove_from_service store with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remove_from_service");
  fun () ->
    match Store.Default.return_to_service store with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "return_to_service"

(* Every disk read on the node fails for the pass: its listing, served from
   the memtable, still works, but the key's chunk cannot be read. *)
let get_fails f ~node =
  let disk = Fleet.node_disk f ~node in
  Disk.arm_random_faults disk ~rng:(Rng.create 5L) ~transient_prob:1.0 ~permanent_prob:0.0;
  fun () -> Disk.disarm_random_faults disk

let () =
  Faults.disable_all ();
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "placement" `Quick test_placement_deterministic_and_spread;
          Alcotest.test_case "put/get replicated" `Quick test_put_get_replicated;
          Alcotest.test_case "put_many replicated" `Quick test_put_many_replicated;
          Alcotest.test_case "put_many matches sequential" `Quick
            test_put_many_matches_sequential;
          Alcotest.test_case "structured node failure" `Quick
            test_node_failed_carries_store_error;
          Alcotest.test_case "survives any single crash" `Quick test_survives_any_single_crash;
          Alcotest.test_case "survives node loss with repair" `Quick
            test_survives_node_loss_with_repair;
          Alcotest.test_case "repair idempotent" `Quick test_repair_idempotent;
          QCheck_alcotest.to_alcotest prop_fleet_durability;
        ] );
      ( "request plane",
        [
          Alcotest.test_case "transient fault absorbed by retries" `Quick
            test_transient_fault_absorbed;
          Alcotest.test_case "partial write recorded and repaired" `Quick
            test_partial_write_recorded_and_repaired;
          Alcotest.test_case "below quorum fails but records debt" `Quick
            test_below_quorum_fails_but_records_debt;
          Alcotest.test_case "health state machine" `Quick test_health_state_machine;
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "delete requires all replicas" `Quick
            test_delete_requires_all_replicas;
          Alcotest.test_case "get failover and read repair" `Quick
            test_get_failover_and_read_repair;
          Alcotest.test_case "ft config validation" `Quick test_ft_config_validation;
          Alcotest.test_case "scan over replaced nodes fails (chaos 1375)" `Quick
            test_scan_over_replaced_nodes;
          Alcotest.test_case "scan after a repair whose listing failed" `Quick
            (test_scan_after_blind_repair list_fails);
          Alcotest.test_case "scan after a repair whose read failed" `Quick
            (test_scan_after_blind_repair get_fails);
          Alcotest.test_case "fault #5 still detected with retries" `Quick
            test_f5_still_detected_with_retries;
        ] );
    ]
