module Audit = Tracecheck.Audit

type report = {
  domains : int;
  ops_per_domain : int;
  shards : int;
  keys : int;
  flushes : int;
  errors : int;
  audit : Audit.report;
  final_drain_ok : bool;
  post_drain_consistent : bool;
  maint : Store.Shared.Maint.stats option;
}

let pp_report fmt r =
  Format.fprintf fmt
    "%d domains x %d ops over %d keys (%d shards): %d flushes, %d errors; drain %s, \
     post-drain reads %s"
    r.domains r.ops_per_domain r.keys r.shards r.flushes r.errors
    (if r.final_drain_ok then "ok" else "FAILED")
    (if r.post_drain_consistent then "consistent" else "INCONSISTENT");
  (match r.maint with
  | None -> ()
  | Some s ->
    Format.fprintf fmt "; maint domain: %d steps (%d flushes draining %d, %d compacts, %d \
                        reclaims, %d errors)"
      s.Store.Shared.Maint.steps s.Store.Shared.Maint.flushes s.Store.Shared.Maint.drained
      s.Store.Shared.Maint.compacts s.Store.Shared.Maint.reclaims s.Store.Shared.Maint.errors);
  Format.fprintf fmt "@.  audit %a" Audit.pp_report r.audit

let ok r =
  r.errors = 0 && r.audit.Audit.ops > 0 && Audit.ok r.audit && r.final_drain_ok
  && r.post_drain_consistent
  && match r.maint with
     | None -> true
     | Some s ->
       s.Store.Shared.Maint.errors = 0 && s.Store.Shared.Maint.steps > 0
       && s.Store.Shared.Maint.flushes > 0

let run ?(domains = 4) ?(ops_per_domain = 64) ?(shards = 4) ?(seed = 0) ?(maint = false) () =
  let recorder = Tracecheck.Trace.Recorder.create ~byte_budget:(32 * 1024 * 1024) () in
  (* default_config: real geometry with auto maintenance — the workload
     probes races, not extent exhaustion (test_config's tiny geometry
     runs out of space under hundreds of racing ops). *)
  let store = Store.Shared.create ~shards ~trace:recorder Store.Default.default_config in
  let total = domains * ops_per_domain in
  let keys = max 4 (total / 8) in
  (* Fixed-width names, so a scan window [key j, key (j + 2)] is
     contiguous in string order too. *)
  let width = String.length (string_of_int (keys - 1)) in
  let key i = Printf.sprintf "k%0*d" width i in
  let worker d =
    let rng = Util.Rng.of_int ((seed * 7919) + d) in
    let errors = ref 0 in
    let flushes = ref 0 in
    let count = function Ok _ -> () | Error _ -> incr errors in
    for i = 0 to ops_per_domain - 1 do
      let k = key (Util.Rng.int rng keys) in
      let v = Printf.sprintf "d%d-%d" d i in
      match Util.Rng.int rng 100 with
      | r when r < 40 -> count (Store.Shared.get store ~key:k)
      | r when r < 65 -> count (Store.Shared.put store ~key:k ~value:v)
      | r when r < 75 -> count (Store.Shared.delete store ~key:k)
      | r when r < 85 ->
        let k2 = key (Util.Rng.int rng keys) in
        count (Store.Shared.put_batch store [ (k, v); (k2, v ^ "b") ])
      | r when r < 93 ->
        (* Narrow scans: a complete snapshot judges a handful of keys. *)
        let j = Util.Rng.int rng keys in
        count (Store.Shared.scan store ~lo:(key j) ~hi:(key (min (keys - 1) (j + 2))) ())
      | _ ->
        incr flushes;
        count (Store.Shared.flush store)
    done;
    (!errors, !flushes)
  in
  (* The maintenance domain races the whole foreground phase: round-robin
     narrowed shard flushes plus periodic compactions and reclaims, each
     of which must be invisible to the recorded history. *)
  let maint_worker =
    if maint then Some (Store.Shared.Maint.start ~compact_every:6 ~reclaim_every:9 store)
    else None
  in
  let results = Conc.Domains.spawn_join ~domains worker in
  (* Give a not-yet-scheduled maintenance domain (1-core host, short
     foreground phase) a bounded chance to flush before we stop it: stage
     one sentinel put and spin until the worker drains it. The sentinel
     key is outside the workload's key universe, and the post-join flush
     below covers the bound running out. *)
  (match maint_worker with
  | None -> ()
  | Some _ ->
    ignore (Store.Shared.put store ~key:"maint-wakeup" ~value:"x" : (unit, _) result);
    let rec wait n =
      if Store.Shared.staged_count store > 0 && n > 0 then begin
        Conc.Domains.relax ();
        wait (n - 1)
      end
    in
    wait 50_000_000);
  let maint_stats = Option.map Store.Shared.Maint.stop maint_worker in
  let errors = List.fold_left (fun acc (e, _) -> acc + e) 0 results in
  let flushes = List.fold_left (fun acc (_, f) -> acc + f) 0 results in
  (* Post-join: drain staging, then the shared view and the underlying
     sequential store must agree on every key. *)
  let final_drain_ok =
    match Store.Shared.flush store with
    | Ok _ -> Store.Shared.staged_count store = 0
    | Error _ -> false
  in
  let post_drain_consistent =
    List.init keys key
    |> List.for_all (fun k ->
           match (Store.Shared.get store ~key:k, Store.Default.get (Store.Shared.store store) ~key:k) with
           | Ok a, Ok b -> a = b
           | _ -> false)
  in
  {
    domains;
    ops_per_domain;
    shards;
    keys;
    flushes;
    errors;
    audit = Audit.audit recorder;
    final_drain_ok;
    post_drain_consistent;
    maint = maint_stats;
  }
