(* E13: the chaos campaign — randomized fault-injection validation of the
   fleet's request plane (ISSUE: robustness tentpole; paper section 8.4
   names validating ShardStore's role in the wider replicated system as
   future work).

   Each campaign is a seeded, fully deterministic sequence of client
   operations (put / put_many / get / delete) interleaved with chaos
   (random fault arming, targeted extent failures, node crashes, node
   losses, heals, repairs) against a small fleet, checked against a
   per-key model:

     { committed : value the fleet acknowledged last;
       maybe     : outcomes of mutations that failed after possibly
                   reaching some replicas }

   An acknowledged mutation sets [committed] and clears [maybe]; a failed
   mutation appends to [maybe] (its effect is indeterminate — the client
   was told "error", not "didn't happen"). A successful read must return
   an admissible value: [committed] or something in [maybe]. Read errors
   during the campaign are unavailability, not violations.

   The core property is checked in a final convergence phase: replace all
   broken hardware (heal + reboot), run repair, and then every key must be
   readable with an admissible value, fully replicated, with the dirty set
   drained — i.e. every acknowledged write survived the campaign.

   All randomness is baked into the op list (arming seeds, crash seeds),
   so a failing campaign replays exactly and minimizes with ddmin. *)

module S = Store.Default

type op =
  | Put of { key : string; value : string }
  | Put_many of (string * string) list
  | Delete of { key : string }
  | Get of { key : string }
  | Scan of { lo : string option; hi : string option }
  | Arm_faults of { node : int; transient : float; permanent : float; seed : int }
  | Disarm_faults of { node : int }
  | Fail_extent of { node : int; extent : int; permanent : bool }
  | Crash of { node : int; seed : int }
  | Destroy of { node : int }
  | Heal of { node : int; seed : int }
  | Repair

let pp_op fmt = function
  | Put { key; value } -> Format.fprintf fmt "put %s=%S" key value
  | Put_many ops ->
    Format.fprintf fmt "put-many [%s]"
      (String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ops))
  | Delete { key } -> Format.fprintf fmt "delete %s" key
  | Get { key } -> Format.fprintf fmt "get %s" key
  | Scan { lo; hi } ->
    let b = function None -> "-" | Some k -> k in
    Format.fprintf fmt "scan [%s, %s]" (b lo) (b hi)
  | Arm_faults { node; transient; permanent; seed } ->
    Format.fprintf fmt "arm-faults node %d (transient %.2f, permanent %.3f, seed %d)" node
      transient permanent seed
  | Disarm_faults { node } -> Format.fprintf fmt "disarm-faults node %d" node
  | Fail_extent { node; extent; permanent } ->
    Format.fprintf fmt "fail-extent node %d extent %d (%s)" node extent
      (if permanent then "permanent" else "once")
  | Crash { node; seed } -> Format.fprintf fmt "crash node %d (seed %d)" node seed
  | Destroy { node } -> Format.fprintf fmt "destroy node %d" node
  | Heal { node; seed } -> Format.fprintf fmt "heal node %d (seed %d)" node seed
  | Repair -> Format.pp_print_string fmt "repair"

type violation = {
  at : int;  (* op index; -1 = final convergence phase *)
  what : string;
}

let pp_violation fmt v =
  if v.at < 0 then Format.fprintf fmt "final phase: %s" v.what
  else Format.fprintf fmt "op %d: %s" v.at v.what

type campaign_report = {
  seed : int;
  ops : int;
  violations : violation list;
  minimized : op list;  (* shrunk reproducer; [] when the campaign is clean *)
  trace : Tracecheck.Trace.entry list;
      (* wire trace of the minimized reproducer (or, with capture on, of
         the full campaign when it is clean); [] when capture is off and
         the campaign is clean *)
  faults_injected : int;
  retries : int;
  failovers : int;
  read_repairs : int;
  breaker_opens : int;
  quorum_acks : int;
  partial_writes : int;
}

type summary = {
  campaigns : int;
  clean : int;
  total_ops : int;
  total_faults : int;
  total_retries : int;
  total_failovers : int;
  total_read_repairs : int;
  total_breaker_opens : int;
  total_quorum_acks : int;
  total_partial_writes : int;
  failed : campaign_report list;
  seconds : float;
}

(* Geometry: 5 nodes, 3 replicas, roomy 16x16x64 disks (capacity planning,
   not GC pressure, bounds real nodes). *)
let nodes = 5
let replication = 3
let extent_count = 16

let fleet_config ~seed =
  {
    Fleet.nodes;
    replication;
    store =
      {
        S.test_config with
        S.seed = Int64.of_int (0xC4A05 + (seed * 9_176));
        disk = { Disk.extent_count; pages_per_extent = 16; page_size = 64 };
      };
  }

(* {2 The model} *)

type entry = { committed : string option; maybe : string option list }

let keys = Array.init 10 (fun i -> Printf.sprintf "s%02d" i)

let entry model key =
  match Hashtbl.find_opt model key with
  | Some e -> e
  | None -> { committed = None; maybe = [] }

let acked model key v = Hashtbl.replace model key { committed = v; maybe = [] }

let failed model key v =
  let e = entry model key in
  if not (List.mem v e.maybe) then Hashtbl.replace model key { e with maybe = v :: e.maybe }

(* Values a read of [key] may legitimately return. *)
let admissible model key v =
  let e = entry model key in
  (match v with None -> e.committed = None | Some _ -> v = e.committed) || List.mem v e.maybe

let pp_value fmt = function
  | None -> Format.pp_print_string fmt "none"
  | Some v -> Format.fprintf fmt "%S" v

let pp_admissible fmt e =
  Format.fprintf fmt "committed %a%s" pp_value e.committed
    (match e.maybe with
    | [] -> ""
    | m -> Printf.sprintf ", maybe {%s}" (String.concat ", " (List.map (function None -> "none" | Some v -> Printf.sprintf "%S" v) m)))

(* {2 Generation — all randomness baked into the ops} *)

let gen_value rng i = Printf.sprintf "v%d.%d" i (Util.Rng.int rng 1_000)

let gen_ops ~rng ~length =
  List.init length (fun i ->
      let key () = Util.Rng.pick rng keys in
      let node () = Util.Rng.int rng nodes in
      Util.Rng.weighted rng
        [
          (28, `Put);
          (8, `Put_many);
          (24, `Get);
          (6, `Delete);
          (6, `Arm);
          (4, `Disarm);
          (6, `Fail_extent);
          (6, `Crash);
          (3, `Destroy);
          (4, `Heal);
          (5, `Repair);
          (* Appended last: keeps the draw order of the classic alphabet
             for every op class above, perturbing campaigns as little as
             adding an op can. *)
          (5, `Scan);
        ]
      |> function
      | `Put -> Put { key = key (); value = gen_value rng i }
      | `Put_many ->
        let n = 2 + Util.Rng.int rng 3 in
        let ks = Array.copy keys in
        Util.Rng.shuffle rng ks;
        Put_many (List.init n (fun j -> (ks.(j), gen_value rng ((i * 10) + j))))
      | `Get -> Get { key = key () }
      | `Scan ->
        let bound () = if Util.Rng.chance rng 0.3 then None else Some (key ()) in
        let lo = bound () and hi = bound () in
        let lo, hi =
          match (lo, hi) with
          | Some l, Some h when String.compare l h > 0 -> (Some h, Some l)
          | _ -> (lo, hi)
        in
        Scan { lo; hi }
      | `Delete -> Delete { key = key () }
      | `Arm ->
        Arm_faults
          {
            node = node ();
            transient = 0.05 +. (float_of_int (Util.Rng.int rng 25) /. 100.);
            permanent = float_of_int (Util.Rng.int rng 4) /. 100.;
            seed = Util.Rng.int rng 1_000_000;
          }
      | `Disarm -> Disarm_faults { node = node () }
      | `Fail_extent ->
        Fail_extent
          {
            node = node ();
            extent = Util.Rng.int rng extent_count;
            permanent = Util.Rng.chance rng 0.25;
          }
      | `Crash -> Crash { node = node (); seed = Util.Rng.int rng 1_000_000 }
      | `Destroy -> Destroy { node = node () }
      | `Heal -> Heal { node = node (); seed = Util.Rng.int rng 1_000_000 }
      | `Repair -> Repair)

(* {2 Execution} *)

(* Destroying a node must not take out the last surviving copy of a
   committed value the model will demand back. A key is safe when [None]
   is admissible (a failed delete makes an empty fleet acceptable) or some
   non-victim replica currently holds an admissible value. *)
let safe_to_destroy fleet model ~node =
  Hashtbl.fold
    (fun key e safe ->
      safe
      &&
      match e.committed with
      | None -> true
      | Some _ ->
        List.mem None e.maybe
        || (not (List.mem node (Fleet.placement fleet key)))
        || List.exists
             (fun n ->
               n <> node
               &&
               match Fleet.peek fleet ~node:n ~key with
               | Ok (Some v) -> admissible model key (Some v)
               | Ok None | Error _ -> false)
             (Fleet.placement fleet key))
    model true

let apply ~trace fleet model violations idx op =
  let violate what = violations := { at = idx; what } :: !violations in
  (* The chaos side of the wire trace: fault arming and targeted extent
     failures happen at the disk layer, which the fleet cannot see, so
     the driver emits their markers itself. Crash/destroy/heal/repair
     markers come from the instrumented fleet. *)
  let mark ?node kind =
    match trace with
    | None -> ()
    | Some r -> Tracecheck.Trace.Recorder.mark r ~src:"chaos" ?node kind
  in
  match op with
  | Put { key; value } -> (
    match Fleet.put fleet ~key ~value with
    | Ok _ack -> acked model key (Some value)
    | Error _ -> failed model key (Some value))
  | Put_many ops -> (
    match Fleet.put_many fleet ops with
    | Ok () -> List.iter (fun (k, v) -> acked model k (Some v)) ops
    | Error _ -> List.iter (fun (k, v) -> failed model k (Some v)) ops)
  | Delete { key } -> (
    match Fleet.delete fleet ~key with
    | Ok () -> acked model key None
    | Error _ -> failed model key None)
  | Get { key } -> (
    match Fleet.get fleet ~key with
    | Ok v ->
      if not (admissible model key v) then
        violate
          (Format.asprintf "read %s = %a, admissible: %a" key pp_value v pp_admissible
             (entry model key))
    | Error _ -> () (* unavailability, not a safety violation *))
  | Scan { lo; hi } -> (
    match Fleet.scan fleet ?lo ?hi () with
    | Ok pairs ->
      (* Every model key in range is judged by what the scan said about it:
         a yielded value, or absence — both must be admissible. *)
      Array.iter
        (fun key ->
          if Util.Key_range.mem ~lo ~hi key then begin
            let v = List.assoc_opt key pairs in
            if not (admissible model key v) then
              violate
                (Format.asprintf "scan %s = %a, admissible: %a" key pp_value v pp_admissible
                   (entry model key))
          end)
        keys
    | Error _ -> () (* unavailability, not a safety violation *))
  | Arm_faults { node; transient; permanent; seed } ->
    mark ~node Tracecheck.Trace.Fault_armed;
    Disk.arm_random_faults
      (Fleet.node_disk fleet ~node)
      ~rng:(Util.Rng.create (Int64.of_int seed))
      ~transient_prob:transient ~permanent_prob:permanent
  | Disarm_faults { node } ->
    mark ~node Tracecheck.Trace.Fault_cleared;
    Disk.disarm_random_faults (Fleet.node_disk fleet ~node)
  | Fail_extent { node; extent; permanent } ->
    mark ~node Tracecheck.Trace.Extent_failed;
    let disk = Fleet.node_disk fleet ~node in
    if permanent then Disk.fail_permanently disk ~extent else Disk.fail_once disk ~extent
  | Crash { node; seed } ->
    Fleet.crash_node fleet ~rng:(Util.Rng.create (Int64.of_int seed)) ~node
  | Destroy { node } ->
    if safe_to_destroy fleet model ~node then Fleet.destroy_node fleet ~node
  | Heal { node; seed } ->
    (* replace the broken hardware and reboot: heal the medium, lift the
       scheduler's extent quarantines (a reboot is the only thing that
       does), and re-close the breaker *)
    Disk.heal_all (Fleet.node_disk fleet ~node);
    Fleet.crash_node fleet ~rng:(Util.Rng.create (Int64.of_int seed)) ~node;
    Fleet.heal_node fleet ~node
  | Repair -> ignore (Fleet.repair fleet : (Fleet.repair_report, Fleet.error) result)

(* Final convergence phase: fix all hardware, then repair must drain the
   dirty set and every key must come back with an admissible value. *)
let check_convergence ~seed fleet model violations =
  let violate what = violations := { at = -1; what } :: !violations in
  for node = 0 to nodes - 1 do
    Disk.heal_all (Fleet.node_disk fleet ~node);
    Fleet.crash_node fleet ~rng:(Util.Rng.create (Int64.of_int ((seed * 31) + node))) ~node;
    Fleet.heal_node fleet ~node
  done;
  let rec drain n =
    match Fleet.repair fleet with
    | Error e -> violate (Format.asprintf "repair failed: %a" Fleet.pp_error e)
    | Ok r ->
      if Fleet.dirty_count fleet > 0 && n < 3 then drain (n + 1)
      else begin
        if r.Fleet.shards_failed > 0 then
          violate (Printf.sprintf "repair left %d replicas unhealed" r.Fleet.shards_failed);
        if Fleet.dirty_count fleet > 0 then
          violate
            (Printf.sprintf "dirty set not drained after %d repairs: {%s}" (n + 1)
               (String.concat ", " (Fleet.dirty_keys fleet)))
      end
  in
  drain 0;
  (* After convergence every node's LSM tree must still satisfy the
     composed per-level discipline: the campaign's crashes and relocations
     are not allowed to bend the structural invariants. *)
  for node = 0 to nodes - 1 do
    match S.level_invariants (Fleet.node_store fleet ~node) with
    | Ok () -> ()
    | Error msg -> violate (Printf.sprintf "node %d level invariant violated: %s" node msg)
  done;
  (* A full fleet scan must agree with the per-key reads: exactly the
     committed live keys, each carrying an admissible value. *)
  (match Fleet.scan fleet () with
  | Error e -> violate (Format.asprintf "fleet scan failed after convergence: %a" Fleet.pp_error e)
  | Ok pairs ->
    Array.iter
      (fun key ->
        let v = List.assoc_opt key pairs in
        if not (admissible model key v) then
          violate
            (Format.asprintf "converged scan %s = %a, admissible: %a" key pp_value v
               pp_admissible (entry model key)))
      keys);
  Array.iter
    (fun key ->
      let e = entry model key in
      match Fleet.get fleet ~key with
      | Error err ->
        if e.committed <> None || e.maybe <> [] then
          violate (Format.asprintf "%s unreadable after convergence: %a" key Fleet.pp_error err)
      | Ok v ->
        if not (admissible model key v) then
          violate
            (Format.asprintf "acknowledged write lost: %s = %a, admissible: %a" key pp_value v
               pp_admissible e)
        else if v <> None && Fleet.replica_count fleet ~key < replication then
          violate
            (Printf.sprintf "%s under-replicated after repair: %d of %d" key
               (Fleet.replica_count fleet ~key)
               replication))
    keys

let counter fleet name = Obs.counter_value (Fleet.obs fleet) name

(* Assumes the global fault toggles are already as the caller wants them
   ([run] disables everything up front, [check_teeth] arms #18): toggles
   may only change between sweeps, never from inside a campaign running on
   a worker domain. *)
let run_ops ?trace ~seed ops =
  let fleet = Fleet.create ?trace (fleet_config ~seed) in
  let model : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  List.iteri (apply ~trace fleet model violations) ops;
  check_convergence ~seed fleet model violations;
  let faults = ref 0 in
  for node = 0 to nodes - 1 do
    faults := !faults + Disk.injected_failures (Fleet.node_disk fleet ~node)
  done;
  (List.rev !violations, (fun name -> counter fleet name), !faults)

(* Budget for one campaign's wire trace: a campaign is a few hundred
   operations (scans resolve through point reads, the convergence phase
   re-reads every key), far under this — drops would turn the offline
   audit's verdict into [Truncated], so the budget errs roomy. *)
let trace_budget = 8 * 1024 * 1024

let gen ~length ~seed =
  let rng = Util.Rng.create (Int64.of_int ((seed * 2_654_435_761) + 97)) in
  gen_ops ~rng ~length

(* Replay [ops] with a fresh recorder attached and return its trace —
   deterministic, campaigns are sequential (the logical clock never sees
   two domains), so the same ops yield the same entries. *)
let trace_of ~seed ops =
  let recorder = Tracecheck.Trace.Recorder.create ~byte_budget:trace_budget () in
  let (_ : violation list * (string -> int) * int) = run_ops ~trace:recorder ~seed ops in
  Tracecheck.Trace.Recorder.entries recorder

let campaign ?(capture = false) ~length ~seed () =
  let ops = gen ~length ~seed in
  let recorder =
    if capture then Some (Tracecheck.Trace.Recorder.create ~byte_budget:trace_budget ())
    else None
  in
  let violations, counter_of, faults = run_ops ?trace:recorder ~seed ops in
  let minimized =
    if violations = [] then []
    else
      (* Span-removal ddmin; deterministic because every op carries its
         own seeds. *)
      Util.Ddmin.minimize
        ~still_fails:(fun ops ->
          let vs, _, _ = run_ops ~seed ops in
          vs <> [])
        ops
  in
  (* A counterexample ships with its wire trace: the minimized
     reproducer replays deterministically, so its (small) trace is the
     artifact to read, not the full campaign's. *)
  let trace =
    if minimized <> [] then trace_of ~seed minimized
    else match recorder with Some r -> Tracecheck.Trace.Recorder.entries r | None -> []
  in
  {
    seed;
    ops = List.length ops;
    violations;
    minimized;
    trace;
    faults_injected = faults;
    retries = counter_of "fleet.retry";
    failovers = counter_of "fleet.get_failover";
    read_repairs = counter_of "fleet.read_repair";
    breaker_opens = counter_of "fleet.breaker_open";
    quorum_acks = counter_of "fleet.quorum_ack";
    partial_writes = counter_of "fleet.partial_write";
  }

let run ?(domains = 1) ?(campaigns = 200) ?(length = 40) ?(seed = 0) ?(capture = false) () =
  let t0 = Util.Wallclock.now_s () in
  Faults.disable_all ();
  (* Campaigns are seed-carrying and independent, so they shard across
     domains; segments accumulate reversed report lists and merge keeps
     them in descending seed order, so the final reverse restores the
     sequential ascending order byte for byte. A violating campaign
     minimizes inside its own task — deterministic, every op carries its
     seeds. *)
  let reports =
    List.rev
      (Par.sweep ~domains ~start:seed ~count:campaigns
         ~init:(fun () -> [])
         ~step:(fun acc s -> campaign ~capture ~length ~seed:s () :: acc)
         ~merge:(fun lo hi -> hi @ lo)
         ())
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    campaigns;
    clean = List.length (List.filter (fun r -> r.violations = []) reports);
    total_ops = sum (fun r -> r.ops);
    total_faults = sum (fun r -> r.faults_injected);
    total_retries = sum (fun r -> r.retries);
    total_failovers = sum (fun r -> r.failovers);
    total_read_repairs = sum (fun r -> r.read_repairs);
    total_breaker_opens = sum (fun r -> r.breaker_opens);
    total_quorum_acks = sum (fun r -> r.quorum_acks);
    total_partial_writes = sum (fun r -> r.partial_writes);
    failed = List.filter (fun r -> r.violations <> []) reports;
    seconds = Util.Wallclock.now_s () -. t0;
  }

(* The campaign checker must itself have teeth: with #18 (quorum ack
   without durable flush) switched on, acknowledged writes sit in volatile
   staging and the final-phase reboots shred them — at least one campaign
   must catch the durability violation, or the checker is vacuous. *)
let teeth_window = 20

let check_teeth ?(domains = 1) ?(campaigns = teeth_window) ?(length = 40) ?(seed = 0) () =
  (* #18 is armed before the sweep and stays constant throughout — workers
     only read the toggle. *)
  Faults.only Faults.F18_quorum_ack_volatile (fun () ->
      Par.sweep ~domains ~start:seed ~count:campaigns
        ~init:(fun () -> 0)
        ~step:(fun violations s ->
          let rng = Util.Rng.create (Int64.of_int ((s * 2_654_435_761) + 97)) in
          let ops = gen_ops ~rng ~length in
          let vs, _, _ = run_ops ~seed:s ops in
          if vs <> [] then violations + 1 else violations)
        ~merge:( + ) ())

let passes ~campaigns ~clean ~blind_spots ~teeth =
  clean = campaigns && (campaigns < teeth_window || (blind_spots = [] && teeth > 0))

let print summary =
  Printf.printf
    "E13: chaos campaign — fault-tolerant request plane under randomized faults\n";
  Printf.printf "fleet: %d nodes, replication %d, write quorum majority\n\n" nodes replication;
  Printf.printf "%-44s %12d\n" "campaigns" summary.campaigns;
  Printf.printf "%-44s %12d\n" "clean (no durability violation)" summary.clean;
  Printf.printf "%-44s %12d\n" "operations applied" summary.total_ops;
  Printf.printf "%-44s %12d\n" "disk faults injected" summary.total_faults;
  Printf.printf "%-44s %12d\n" "transient retries (fleet.retry)" summary.total_retries;
  Printf.printf "%-44s %12d\n" "read failovers (fleet.get_failover)" summary.total_failovers;
  Printf.printf "%-44s %12d\n" "read-repairs (fleet.read_repair)" summary.total_read_repairs;
  Printf.printf "%-44s %12d\n" "breaker trips (fleet.breaker_open)" summary.total_breaker_opens;
  Printf.printf "%-44s %12d\n" "degraded quorum acks (fleet.quorum_ack)" summary.total_quorum_acks;
  Printf.printf "%-44s %12d\n" "partial writes (fleet.partial_write)" summary.total_partial_writes;
  Printf.printf "%-44s %11.1fs\n" "wall clock" summary.seconds;
  List.iter
    (fun r ->
      Printf.printf "\ncampaign seed %d: %d violation(s)\n" r.seed (List.length r.violations);
      List.iter (fun v -> Format.printf "  %a@." pp_violation v) r.violations;
      Printf.printf "  minimized reproducer (%d of %d ops):\n" (List.length r.minimized) r.ops;
      List.iteri (fun i op -> Format.printf "    %2d: %a@." i pp_op op) r.minimized;
      if r.trace <> [] then begin
        let n = List.length r.trace in
        let tail = 40 in
        Printf.printf "  wire trace of the reproducer (%s%d event(s)):\n"
          (if n > tail then Printf.sprintf "last %d of " tail else "")
          n;
        List.iteri
          (fun i e ->
            if i >= n - tail then Format.printf "    %a@." Tracecheck.Trace.pp_entry e)
          r.trace
      end)
    summary.failed
