(* E16: wire-trace capture and offline linearizability audit — see
   trace_audit.mli for the experiment description. *)

module T = Tracecheck.Trace
module A = Tracecheck.Audit

type teeth_case = {
  t_name : string;
  t_rejected : bool;
  t_verdict : A.verdict;
  t_reason : string;
}

type summary = {
  campaigns : int;
  chaos_valid : int;
  chaos_violations : int;
  chaos_entries : int;
  chaos_ops : int;
  chaos_search_nodes : int;
  chaos_dropped : int;
  shared : Shared_lin.report;
  node_requests : int;
  node_report : A.report;
  forged : teeth_case list;
  f18_campaigns : int;
  f18_detected : int;
  seconds : float;
}

let trace_budget = 8 * 1024 * 1024

(* {2 Chaos campaigns, captured and audited} *)

(* One campaign: replay the standard seeded op list with a recorder
   attached, then audit the trace. The campaign is sequential, so the
   trace is deterministic; the chaos model's own verdict rides along as
   a cross-check (both judges should agree the run is fine). *)
let audit_campaign ~length ~seed =
  let ops = Chaos.gen ~length ~seed in
  let recorder = T.Recorder.create ~byte_budget:trace_budget () in
  let violations, _, _ = Chaos.run_ops ~trace:recorder ~seed ops in
  (A.audit recorder, List.length violations)

type chaos_acc = {
  c_valid : int;
  c_violations : int;
  c_entries : int;
  c_ops : int;
  c_nodes : int;
  c_dropped : int;
}

let chaos_zero =
  { c_valid = 0; c_violations = 0; c_entries = 0; c_ops = 0; c_nodes = 0; c_dropped = 0 }

let run_chaos ~domains ~campaigns ~length ~seed =
  Faults.disable_all ();
  Par.sweep ~domains ~start:seed ~count:campaigns
    ~init:(fun () -> chaos_zero)
    ~step:(fun acc s ->
      let report, violations = audit_campaign ~length ~seed:s in
      {
        c_valid = (acc.c_valid + if A.ok report then 1 else 0);
        c_violations = (acc.c_violations + if violations > 0 then 1 else 0);
        c_entries = acc.c_entries + report.A.entries;
        c_ops = acc.c_ops + report.A.ops;
        c_nodes = acc.c_nodes + report.A.search_nodes;
        c_dropped = acc.c_dropped + report.A.dropped;
      })
    ~merge:(fun a b ->
      {
        c_valid = a.c_valid + b.c_valid;
        c_violations = a.c_violations + b.c_violations;
        c_entries = a.c_entries + b.c_entries;
        c_ops = a.c_ops + b.c_ops;
        c_nodes = a.c_nodes + b.c_nodes;
        c_dropped = a.c_dropped + b.c_dropped;
      })
    ()

(* {2 Rpc.Node request plane, pagination included} *)

let run_node ~requests ~seed =
  let recorder = T.Recorder.create ~byte_budget:trace_budget () in
  let node = Rpc.Node.create ~trace:recorder Store.Default.test_config in
  let nkeys = 12 in
  let key i = Printf.sprintf "n%02d" i in
  let rng = Util.Rng.of_int ((seed * 104_729) + 7) in
  for i = 0 to requests - 1 do
    let k = key (Util.Rng.int rng nkeys) in
    let v = Printf.sprintf "r%d" i in
    let req =
      match Util.Rng.int rng 100 with
      | r when r < 35 -> Rpc.Message.Get { key = k }
      | r when r < 65 -> Rpc.Message.Put { key = k; value = v }
      | r when r < 75 -> Rpc.Message.Delete { key = k }
      | r when r < 90 ->
        let k2 = key (Util.Rng.int rng nkeys) in
        Rpc.Message.Batch_request
          {
            ops =
              [
                Rpc.Message.Batch_put { key = k; value = v };
                (if Util.Rng.chance rng 0.5 then Rpc.Message.Batch_delete { key = k2 }
                 else Rpc.Message.Batch_put { key = k2; value = v ^ "b" });
              ];
          }
      | _ -> Rpc.Message.Scan_request { lo = None; hi = None; after = None; max_results = 64 }
    in
    ignore (Rpc.Node.handle node req : Rpc.Message.response)
  done;
  (* One scan driven through its continuation tokens: every page is a
     recorded interval, only a token-free final-page-less scan may claim
     completeness. *)
  let rec paginate after guard =
    if guard > 0 then
      match
        Rpc.Node.handle node (Rpc.Message.Scan_request { lo = None; hi = None; after; max_results = 3 })
      with
      | Rpc.Message.Scan_response { items; more } when more -> (
        match List.rev items with
        | (last, _) :: _ -> paginate (Some last) (guard - 1)
        | [] -> ())
      | _ -> ()
  in
  paginate None 32;
  A.audit recorder

(* {2 Teeth: forged histories} *)

let forged_histories =
  let e ts ev = { T.ts; src = "forged"; ev } in
  let inv ts id op = e ts (T.Invoke { id; client = 0; op }) in
  let resp ts id outcome = e ts (T.Respond { id; outcome }) in
  [
    (* An acknowledged put whose value is gone by the next read: the
       canonical durability violation. *)
    ( "acked-write-lost",
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Get { key = "a" });
        resp 4 2 (T.Got None);
      ] );
    (* A failover read serving the overwritten value after a later put
       was acknowledged: stale, not concurrent — the intervals are
       disjoint, so no linearization order explains it. *)
    ( "stale-failover-read",
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Put { key = "a"; value = "y" });
        resp 4 2 T.Acked;
        inv 5 3 (T.Get { key = "a" });
        resp 6 3 (T.Got (Some "x"));
      ] );
    (* Each key's answer is fine on its own (the scan overlaps both
       writes), but no single point inside the scan's interval can see
       key b's value while key a is still absent: b is only writable
       from ts 4, a is certainly present after ts 3. *)
    ( "snapshot-violating-scan",
      [
        inv 1 4 (T.Scan { lo = None; hi = None });
        inv 2 1 (T.Put { key = "a"; value = "1" });
        resp 3 1 T.Acked;
        inv 4 2 (T.Put { key = "b"; value = "2" });
        resp 5 2 T.Acked;
        resp 6 4 (T.Scanned { items = [ ("b", "2") ]; complete = true });
      ] );
    (* Clock skew: a response recorded before its invocation. Whichever
       way such a history is serialized, the well-formedness pass fails
       it (here: out-of-order timestamps / respond-before-invoke). *)
    ( "response-before-invoke",
      [
        inv 5 1 (T.Put { key = "a"; value = "x" });
        resp 3 1 T.Acked;
      ] );
  ]

let run_forged () =
  List.map
    (fun (t_name, entries) ->
      let report = A.run entries in
      {
        t_name;
        t_rejected = report.A.verdict = A.Rejected;
        t_verdict = report.A.verdict;
        t_reason =
          (match report.A.rejections with [] -> "" | r :: _ -> r.A.r_reason);
      })
    forged_histories

(* {2 Teeth: fault #18, armed} *)

(* Deterministic durability-violation scenario: with #18 the fleet
   acknowledges writes that only reached volatile staging; crashing
   every node shreds them, and the recorded read-back contradicts the
   acked puts. The audit must reject every one of these traces. *)
let f18_scenario ~seed =
  let recorder = T.Recorder.create ~byte_budget:trace_budget () in
  let fleet = Fleet.create ~trace:recorder (Chaos.fleet_config ~seed) in
  let nkeys = 8 in
  let key i = Printf.sprintf "s%02d" i in
  for i = 0 to nkeys - 1 do
    ignore (Fleet.put fleet ~key:(key i) ~value:(Printf.sprintf "t%d.%d" seed i)
             : (Fleet.ack, Fleet.error) result)
  done;
  for node = 0 to Chaos.nodes - 1 do
    Fleet.crash_node fleet ~rng:(Util.Rng.create (Int64.of_int ((seed * 31) + node))) ~node
  done;
  for i = 0 to nkeys - 1 do
    ignore (Fleet.get fleet ~key:(key i) : (string option, Fleet.error) result)
  done;
  A.audit recorder

let run_f18 ~campaigns ~seed =
  Faults.disable_all ();
  Faults.with_fault Faults.F18_quorum_ack_volatile (fun () ->
      let detected = ref 0 in
      for s = seed to seed + campaigns - 1 do
        let report = f18_scenario ~seed:s in
        if report.A.verdict = A.Rejected then incr detected
      done;
      !detected)

(* {2 The experiment} *)

let run ?(domains = 1) ?(campaigns = 200) ?(length = 40) ?(seed = 0) ?(shared_ops = 300) () =
  let t0 = Util.Wallclock.now_s () in
  let chaos = run_chaos ~domains ~campaigns ~length ~seed in
  let shared = Shared_lin.run ~domains:(max 2 domains) ~ops_per_domain:shared_ops ~seed () in
  let node_requests = 400 in
  let node_report = run_node ~requests:node_requests ~seed in
  let forged = run_forged () in
  let f18_campaigns = 20 in
  let f18_detected = run_f18 ~campaigns:f18_campaigns ~seed in
  {
    campaigns;
    chaos_valid = chaos.c_valid;
    chaos_violations = chaos.c_violations;
    chaos_entries = chaos.c_entries;
    chaos_ops = chaos.c_ops;
    chaos_search_nodes = chaos.c_nodes;
    chaos_dropped = chaos.c_dropped;
    shared;
    node_requests;
    node_report;
    forged;
    f18_campaigns;
    f18_detected;
    seconds = Util.Wallclock.now_s () -. t0;
  }

let ok s =
  s.chaos_valid = s.campaigns && s.chaos_violations = 0
  && Shared_lin.ok s.shared && A.ok s.node_report
  && List.for_all (fun c -> c.t_rejected) s.forged
  && s.f18_detected = s.f18_campaigns

let print s =
  Printf.printf "E16: wire-trace capture and offline linearizability audit\n\n";
  Printf.printf "%-52s %12d\n" "chaos campaigns captured" s.campaigns;
  Printf.printf "%-52s %12d\n" "chaos traces audited valid" s.chaos_valid;
  Printf.printf "%-52s %12d\n" "chaos model violations (cross-check)" s.chaos_violations;
  Printf.printf "%-52s %12d\n" "chaos trace entries" s.chaos_entries;
  Printf.printf "%-52s %12d\n" "chaos operations judged" s.chaos_ops;
  Printf.printf "%-52s %12d\n" "chaos search nodes" s.chaos_search_nodes;
  Printf.printf "%-52s %12d\n" "chaos events dropped" s.chaos_dropped;
  Format.printf "shared store: %a@." Shared_lin.pp_report s.shared;
  Format.printf "rpc node (%d requests, paginated scan): %a@." s.node_requests A.pp_report
    s.node_report;
  Printf.printf "\nteeth — forged histories (each must be rejected):\n";
  List.iter
    (fun c ->
      Printf.printf "  %-28s %s%s\n" c.t_name
        (if c.t_rejected then "rejected" else "NOT REJECTED: " ^ A.verdict_name c.t_verdict)
        (if c.t_reason = "" then "" else " — " ^ c.t_reason))
    s.forged;
  Printf.printf "teeth — fault #18 armed: %d/%d scenario traces rejected\n" s.f18_detected
    s.f18_campaigns;
  Printf.printf "%-52s %11.1fs\n" "wall clock" s.seconds;
  Printf.printf "\ntrace audit: %s\n" (if ok s then "PASS" else "FAIL")
