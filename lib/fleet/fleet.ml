module S = Store.Default

type config = {
  nodes : int;
  replication : int;
  store : S.config;
}

let default_config = { nodes = 6; replication = 3; store = S.default_config }

type ft_config = {
  write_quorum : int option;
  max_retries : int;
  down_after : int;
  backoff_base : int;
  backoff_max : int;
}

let default_ft =
  { write_quorum = None; max_retries = 2; down_after = 3; backoff_base = 4; backoff_max = 64 }

type health = Healthy | Suspect | Down

let health_name = function Healthy -> "healthy" | Suspect -> "suspect" | Down -> "down"
let health_code = function Healthy -> 0 | Suspect -> 1 | Down -> 2

type error =
  | Node_failed of { node : int; error : S.error }
  | No_live_replica of string
  | Quorum_not_met of { key : string; acked : int; needed : int }

let pp_error fmt = function
  | Node_failed { node; error } ->
    Format.fprintf fmt "node %d failed: %a" node S.pp_error error
  | No_live_replica key -> Format.fprintf fmt "no live replica of %S" key
  | Quorum_not_met { key; acked; needed } ->
    Format.fprintf fmt "quorum not met for %S: %d of %d replicas acknowledged" key acked
      needed

type ack = { replicas : int; lagging : int list }

type metrics = {
  m_puts : Obs.Counter.t;
  m_gets : Obs.Counter.t;
  m_scans : Obs.Counter.t;
  m_deletes : Obs.Counter.t;
  m_put_manys : Obs.Counter.t;
  m_batch_size : Obs.Histogram.t;
  m_crashes : Obs.Counter.t;
  m_destroys : Obs.Counter.t;
  m_repairs : Obs.Counter.t;
  m_repaired : Obs.Counter.t;
  m_retries : Obs.Counter.t;
  m_breaker_open : Obs.Counter.t;
  m_quorum_ack : Obs.Counter.t;
  m_read_repair : Obs.Counter.t;
  m_partial_write : Obs.Counter.t;
  m_failover : Obs.Counter.t;
  m_crash_fail : Obs.Counter.t;
}

type node_state = {
  mutable health : health;
  mutable fails : int;  (** consecutive failures since the last success *)
  mutable probe_at : int;  (** clock tick at which a Suspect node is re-probed *)
}

type t = {
  config : config;
  ft : ft_config;
  quorum : int;
  stores : S.t array;
  state : node_state array;
  health_gauges : Obs.Gauge.t array;
  mutable clock : int;  (** logical time: one tick per request-plane attempt *)
  rng : Util.Rng.t;  (** backoff jitter; seeded from the store seed, deterministic *)
  replaced : bool array;
      (** nodes brought back empty by {!destroy_node} since the last repair
          pass that saw every copy and completed with no failed shard:
          available, but holding none of the keys placed on them before *)
  dirty : (string, string option) Hashtbl.t;
      (** under-replicated keys awaiting repair, with the authoritative
          value when one was quorum-acknowledged ([Some v]: a degraded ack,
          repair must converge on [v]; [None]: replicas may diverge, repair
          spreads the best copy it finds) *)
  trace : Tracecheck.Trace.Recorder.t option;
  obs : Obs.t;
  m : metrics;
}

let create ?obs ?trace ?(ft = default_ft) config =
  if config.nodes < config.replication then
    invalid_arg "Fleet.create: fewer nodes than the replication factor";
  if ft.max_retries < 0 then invalid_arg "Fleet.create: negative max_retries";
  if ft.down_after < 1 then invalid_arg "Fleet.create: down_after must be at least 1";
  if ft.backoff_base < 1 || ft.backoff_max < ft.backoff_base then
    invalid_arg "Fleet.create: need 1 <= backoff_base <= backoff_max";
  let quorum =
    match ft.write_quorum with
    | None -> (config.replication / 2) + 1
    | Some q ->
      if q < 1 || q > config.replication then
        invalid_arg "Fleet.create: write_quorum outside [1, replication]";
      q
  in
  (* Fleet-level counters get their own registry; each store keeps a
     private per-instance one, so two nodes' series never collide. *)
  let obs = match obs with Some o -> o | None -> Obs.create ~scope:"fleet" () in
  {
    config;
    ft;
    quorum;
    stores =
      Array.init config.nodes (fun i ->
          S.create
            { config.store with S.seed = Int64.add config.store.S.seed (Int64.of_int (i * 131)) });
    state = Array.init config.nodes (fun _ -> { health = Healthy; fails = 0; probe_at = 0 });
    health_gauges =
      Array.init config.nodes (fun i ->
          Obs.gauge ~labels:[ ("node", string_of_int i) ] obs "fleet.node_health");
    clock = 0;
    rng = Util.Rng.create (Int64.add config.store.S.seed 0xF1EE7L);
    replaced = Array.make config.nodes false;
    dirty = Hashtbl.create 16;
    trace;
    obs;
    m =
      {
        m_puts = Obs.counter obs "fleet.put";
        m_gets = Obs.counter obs "fleet.get";
        m_scans = Obs.counter obs "fleet.scan";
        m_deletes = Obs.counter obs "fleet.delete";
        m_put_manys = Obs.counter obs "fleet.put_many";
        m_batch_size =
          Obs.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64. ] obs "fleet.batch_size";
        m_crashes = Obs.counter obs "fleet.node_crash";
        m_destroys = Obs.counter obs "fleet.node_destroy";
        m_repairs = Obs.counter obs "fleet.repair";
        m_repaired = Obs.counter obs "fleet.shards_repaired";
        m_retries = Obs.counter ~coverage:true obs "fleet.retry";
        m_breaker_open = Obs.counter ~coverage:true obs "fleet.breaker_open";
        m_quorum_ack = Obs.counter ~coverage:true obs "fleet.quorum_ack";
        m_read_repair = Obs.counter ~coverage:true obs "fleet.read_repair";
        m_partial_write = Obs.counter ~coverage:true obs "fleet.partial_write";
        m_failover = Obs.counter obs "fleet.get_failover";
        m_crash_fail = Obs.counter obs "fleet.crash_recovery_failed";
      };
  }

let node_count t = Array.length t.stores
let obs t = t.obs
let node_disk t ~node = S.disk t.stores.(node)
let node_store t ~node = t.stores.(node)
let write_quorum t = t.quorum
let health t ~node = t.state.(node).health
let tick t = t.clock <- t.clock + 1

(* Wire-trace hooks. Each request-plane operation runs inside
   [Recorder.bracket], so recorder calls sit strictly outside every store
   and disk operation (the trace lock is a leaf): the recorded interval
   brackets the whole fleet-level operation, retries and failover
   included. *)
let ack_outcome = function Ok _ -> Tracecheck.Trace.Acked | Error _ -> Tracecheck.Trace.Failed

let trace_mark ?node t kind =
  match t.trace with
  | None -> ()
  | Some r -> Tracecheck.Trace.Recorder.mark r ~src:"fleet" ?node kind

(* {2 Health tracking}

   Per-node failure detector driven by observed request outcomes, on the
   fleet's logical clock (one tick per attempt, so backoff is deterministic
   under a fixed seed). Healthy nodes are always routed to; Suspect nodes
   only once their exponential backoff expires (a probe); Down nodes never —
   the circuit breaker — until {!repair} or {!heal_node} re-closes it. *)

let set_health t node h =
  let st = t.state.(node) in
  if st.health <> h then begin
    st.health <- h;
    Obs.Gauge.set_int t.health_gauges.(node) (health_code h);
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"fleet" "health"
        [ ("node", string_of_int node); ("state", health_name h) ]
  end

let trip_breaker t node =
  if t.state.(node).health <> Down then begin
    Obs.Counter.incr t.m.m_breaker_open;
    set_health t node Down
  end

let available t node =
  match t.state.(node).health with
  | Healthy -> true
  | Suspect -> t.clock >= t.state.(node).probe_at
  | Down -> false

let node_available = available
let node_available t ~node = node_available t node

let note_success t node =
  let st = t.state.(node) in
  st.fails <- 0;
  st.probe_at <- 0;
  set_health t node Healthy

let note_failure t node ~permanent =
  let st = t.state.(node) in
  st.fails <- st.fails + 1;
  if permanent || st.fails >= t.ft.down_after then trip_breaker t node
  else begin
    let backoff = min (t.ft.backoff_base lsl min (st.fails - 1) 16) t.ft.backoff_max in
    let jitter = Util.Rng.int t.rng (1 + (backoff / 4)) in
    st.probe_at <- t.clock + backoff + jitter;
    set_health t node Suspect
  end

let heal_node t ~node =
  trace_mark ~node t Tracecheck.Trace.Heal;
  note_success t node

let node_probe_in t ~node =
  match t.state.(node).health with
  | Suspect -> max 0 (t.state.(node).probe_at - t.clock)
  | Healthy | Down -> 0

(* [attempt t node f] runs one store operation with bounded retry on
   [`Transient] errors and feeds the outcome into the failure detector:
   success re-closes the node, exhausted transient retries mark it Suspect,
   a [`Permanent] error trips the breaker immediately, and [`Resource] /
   [`Fatal] errors surface without a health penalty (the node is not sick,
   the request is). *)
let attempt t node f =
  let rec go retries_left =
    tick t;
    match f () with
    | Ok v ->
      note_success t node;
      Ok v
    | Error error -> (
      match S.error_class error with
      | `Transient when retries_left > 0 ->
        Obs.Counter.incr t.m.m_retries;
        if Obs.tracing t.obs then
          Obs.emit t.obs ~layer:"fleet" "retry"
            [ ("node", string_of_int node); ("left", string_of_int retries_left) ];
        go (retries_left - 1)
      | `Transient ->
        note_failure t node ~permanent:false;
        Error (Node_failed { node; error })
      | `Permanent ->
        note_failure t node ~permanent:true;
        Error (Node_failed { node; error })
      | `Resource | `Fatal -> Error (Node_failed { node; error }))
  in
  go t.ft.max_retries

(* Rendezvous (highest-random-weight) hashing: stable placement that moves
   a minimal number of shards when membership changes. *)
let placement t key =
  let score node =
    Util.Crc32.digest_string (Printf.sprintf "%s/%d" key node)
  in
  List.init (node_count t) Fun.id
  |> List.sort (fun a b -> Int32.unsigned_compare (score b) (score a))
  |> List.filteri (fun i _ -> i < t.config.replication)

let ( let* ) = Result.bind

(* [mark_dirty t key auth] records repair debt. [Some v] (the value a
   degraded quorum ack committed) always wins; [None] must not downgrade an
   existing authoritative entry. *)
let mark_dirty t key auth =
  match auth with
  | Some _ -> Hashtbl.replace t.dirty key auth
  | None -> if not (Hashtbl.mem t.dirty key) then Hashtbl.replace t.dirty key None

let dirty_auth t key = Option.join (Hashtbl.find_opt t.dirty key)
let dirty_count t = Hashtbl.length t.dirty
let dirty_keys t = Util.Tbl.sorted_keys ~compare:String.compare t.dirty

(* Durable acknowledgement: flush the index and superblock, drain the
   writeback, and then {e verify} that the operation's dependency graph
   persisted — a write the scheduler dropped after a permanent extent
   failure must not be acknowledged (it reads back as [`Permanent] to the
   failure detector), and one still pending behind a transiently failing
   medium reads back as [`Transient] so the retry path re-drives it.
   Fault #18 skips exactly this step — the ack happens, durability does
   not — which the chaos campaign must catch (its teeth check). *)
let durable_ack store deps =
  if Faults.enabled Faults.F18_quorum_ack_volatile then begin
    Faults.record_fired Faults.F18_quorum_ack_volatile;
    Ok ()
  end
  else begin
    let* fi = S.flush_index store in
    let* fs = S.flush_superblock store in
    let dep = Dep.all (fi :: fs :: deps) in
    ignore (S.pump store max_int);
    if Dep.is_persistent dep then Ok ()
    else if Dep.has_failed dep then Error (S.Io (Io_sched.Io Disk.Permanent))
    else Error (S.Io (Io_sched.Io Disk.Transient))
  end

let durable_put store ~key ~value =
  let* dep = S.put store ~key ~value in
  durable_ack store [ dep ]

let durable_delete store ~key =
  let* dep = S.delete store ~key in
  durable_ack store [ dep ]

let put t ~key ~value =
  Obs.Counter.incr t.m.m_puts;
  tick t;
  Tracecheck.Trace.Recorder.bracket t.trace ~src:"fleet" (Tracecheck.Trace.Put { key; value })
    ~outcome:ack_outcome
  @@ fun () ->
  let nodes = placement t key in
  let acked = ref 0 and lagging = ref [] and first_err = ref None in
  List.iter
    (fun node ->
      if not (available t node) then lagging := node :: !lagging
      else
        match attempt t node (fun () -> durable_put t.stores.(node) ~key ~value) with
        | Ok () -> incr acked
        | Error e ->
          if !first_err = None then first_err := Some e;
          lagging := node :: !lagging)
    nodes;
  let lag = List.rev !lagging in
  if !acked >= t.quorum then begin
    if lag = [] then Hashtbl.remove t.dirty key
    else begin
      (* Acknowledged below full replication: record the debt — with the
         acknowledged value as the authority repair must converge on — so
         repair needs no full scan and a stale replica can never win. *)
      Obs.Counter.incr t.m.m_quorum_ack;
      Obs.Counter.incr t.m.m_partial_write;
      mark_dirty t key (Some value);
      if Obs.tracing t.obs then
        Obs.emit t.obs ~layer:"fleet" "quorum_ack"
          [
            ("key", key);
            ("acked", string_of_int !acked);
            ("lagging", String.concat "," (List.map string_of_int lag));
          ]
    end;
    Ok { replicas = !acked; lagging = lag }
  end
  else begin
    if !acked > 0 then begin
      (* Unacknowledged partial write: the replicas already written are
         recorded, not leaked — but they carry no authority. *)
      Obs.Counter.incr t.m.m_partial_write;
      mark_dirty t key None
    end;
    match !first_err with
    | Some e -> Error e
    | None -> Error (Quorum_not_met { key; acked = !acked; needed = t.quorum })
  end

(* Group commit across the fleet: keys are grouped by placement so each
   replica node sees one [put_batch] and pays the durable-acknowledgement
   flush (index + superblock + writeback drain) once per batch, not once
   per key. Per-key quorum accounting mirrors {!put}: a key succeeds when
   [write_quorum] replicas acknowledged durably; degraded keys join the
   dirty set. *)
let put_many t ops =
  Obs.Counter.incr t.m.m_put_manys;
  tick t;
  (* The fleet API reports one result for the whole group commit, so the
     trace does too: all acked, or all indeterminate. *)
  Tracecheck.Trace.Recorder.bracket t.trace ~src:"fleet"
    (Tracecheck.Trace.Batch (List.map (fun (k, v) -> (k, Some v)) ops))
    ~outcome:(function
      | Ok () -> Tracecheck.Trace.Batch_done (List.map (fun _ -> true) ops)
      | Error _ -> Tracecheck.Trace.Failed)
  @@ fun () ->
  let buckets = Array.make (node_count t) [] in
  let credit = Hashtbl.create 16 in
  List.iter
    (fun (key, value) ->
      if not (Hashtbl.mem credit key) then Hashtbl.replace credit key 0;
      List.iter
        (fun node ->
          if available t node then buckets.(node) <- (key, value) :: buckets.(node))
        (placement t key))
    ops;
  let first_err = ref None in
  let record_err e = if !first_err = None then first_err := Some e in
  for node = 0 to node_count t - 1 do
    match List.rev buckets.(node) with
    | [] -> ()
    | batch -> (
      Obs.Histogram.observe t.m.m_batch_size (float_of_int (List.length batch));
      let store = t.stores.(node) in
      match attempt t node (fun () -> S.put_batch store batch) with
      | Error e -> record_err e
      | Ok { S.results; barrier } ->
        let ok_keys = ref [] and deps = ref [ barrier ] in
        List.iter2
          (fun (key, value) result ->
            match result with
            | Ok _ -> ok_keys := key :: !ok_keys
            | Error error -> (
              match S.error_class error with
              | `Transient -> (
                (* Per-op transient failure inside an otherwise healthy
                   batch: retry the straggler on the scalar path. *)
                match
                  attempt t node (fun () ->
                      Result.map (fun dep -> deps := dep :: !deps) (S.put store ~key ~value))
                with
                | Ok () -> ok_keys := key :: !ok_keys
                | Error e -> record_err e)
              | _ -> record_err (Node_failed { node; error })))
          batch results;
        match List.sort_uniq String.compare !ok_keys with
        | [] -> ()
        | ok_keys -> (
          match attempt t node (fun () -> durable_ack store !deps) with
          | Ok () ->
            List.iter
              (fun key -> Hashtbl.replace credit key (Hashtbl.find credit key + 1))
              ok_keys
          | Error e -> record_err e))
  done;
  let last_value = Hashtbl.create 16 in
  List.iter (fun (key, value) -> Hashtbl.replace last_value key value) ops;
  let keys = List.sort_uniq String.compare (List.map fst ops) in
  let under =
    List.filter_map
      (fun key ->
        let c = Hashtbl.find credit key in
        if c >= t.quorum && c < t.config.replication then begin
          Obs.Counter.incr t.m.m_quorum_ack;
          Obs.Counter.incr t.m.m_partial_write;
          mark_dirty t key (Hashtbl.find_opt last_value key);
          None
        end
        else if c >= t.quorum then begin
          Hashtbl.remove t.dirty key;
          None
        end
        else begin
          if c > 0 then begin
            Obs.Counter.incr t.m.m_partial_write;
            mark_dirty t key None
          end;
          Some (key, c)
        end)
      keys
  in
  match under with
  | [] -> Ok ()
  | (key, acked) :: _ -> (
    match !first_err with
    | Some e -> Error e
    | None -> Error (Quorum_not_met { key; acked; needed = t.quorum }))

(* Failover read: walk the placement in rank order, skipping nodes the
   breaker has removed, and serve from the first replica that has the
   shard — or, for a key with a quorum-acknowledged authoritative value
   still awaiting repair, from the first replica that has {e that} value
   (a stale replica must not shadow an acknowledged write). Replicas that
   answered "not found" (or answered stale) before the hit are lagging —
   re-replicate onto them right away (read-repair); replicas that were
   skipped or failed join the dirty set for the background repair. *)
let get t ~key =
  Obs.Counter.incr t.m.m_gets;
  tick t;
  Tracecheck.Trace.Recorder.bracket t.trace ~src:"fleet" (Tracecheck.Trace.Get { key })
    ~outcome:(function
      | Ok v -> Tracecheck.Trace.Got v
      | Error _ -> Tracecheck.Trace.Unavailable)
  @@ fun () ->
  let nodes = placement t key in
  let auth = dirty_auth t key in
  let serves = function
    | None -> false
    | Some v -> ( match auth with None -> true | Some a -> String.equal a v)
  in
  let read_repair v lagging =
    List.iter
      (fun behind ->
        match attempt t behind (fun () -> durable_put t.stores.(behind) ~key ~value:v) with
        | Ok () ->
          Obs.Counter.incr t.m.m_read_repair;
          if Obs.tracing t.obs then
            Obs.emit t.obs ~layer:"fleet" "read_repair"
              [ ("key", key); ("node", string_of_int behind) ]
        | Error _ -> mark_dirty t key None)
      (List.rev lagging)
  in
  let rec go idx skipped lagging = function
    | [] ->
      if skipped > 0 || (auth <> None && lagging <> []) then Error (No_live_replica key)
      else Ok None
    | node :: rest ->
      if not (available t node) then go (idx + 1) (skipped + 1) lagging rest
      else (
        match attempt t node (fun () -> S.get t.stores.(node) ~key) with
        | Ok v when serves v ->
          let v = Option.get v in
          if idx > 0 then Obs.Counter.incr t.m.m_failover;
          if skipped > 0 then mark_dirty t key None;
          read_repair v lagging;
          Ok (Some v)
        | Ok _ -> go (idx + 1) skipped (node :: lagging) rest
        | Error _ -> go (idx + 1) (skipped + 1) lagging rest)
  in
  go 0 0 [] nodes

(* Fleet-wide range scan. Enumeration and resolution are split on purpose:
   the candidate key set is the union of every available node's local scan
   plus the in-range dirty keys (a key whose only durable copy sits on a
   lagging replica still shows up), but each candidate's value comes from
   the failover {!get} — the one place that knows about dirty-set
   authority, stale replicas and read-repair. A key no replica can serve
   fails the whole scan rather than silently vanish from the page.

   A key whose every replica is unavailable, or was replaced empty and not
   yet repaired, is in no candidate set, so no resolution can notice it.
   Under rendezvous placement some key may have all its replicas among any
   [replication] nodes, so the scan fails as soon as that many nodes are
   unavailable or replaced. A replaced node counts even though it answers:
   it answers without the keys it lost. *)
let scan t ?lo ?hi () =
  Obs.Counter.incr t.m.m_scans;
  tick t;
  (* The per-candidate resolution below goes through {!get}, so a traced
     scan also records its constituent point reads — each is a genuine
     request-plane read with a client-visible answer. *)
  Tracecheck.Trace.Recorder.bracket t.trace ~src:"fleet" (Tracecheck.Trace.Scan { lo; hi })
    ~outcome:(function
      | Ok items -> Tracecheck.Trace.Scanned { items; complete = true }
      | Error _ -> Tracecheck.Trace.Unavailable)
  @@ fun () ->
  let module Sset = Set.Make (String) in
  let scan_keys store =
    let* pairs = S.scan store ?lo ?hi () in
    Ok (Sset.of_list (List.map fst pairs))
  in
  let rec candidates node acc =
    if node = node_count t then Ok acc
    else if not (available t node) then candidates (node + 1) acc
    else
      match attempt t node (fun () -> scan_keys t.stores.(node)) with
      | Ok keys -> candidates (node + 1) (Sset.union keys acc)
      | Error e -> Error e
  in
  let blind =
    List.filter
      (fun node -> t.replaced.(node) || not (available t node))
      (List.init (node_count t) Fun.id)
  in
  let* () =
    if List.length blind >= t.config.replication then
      Error
        (No_live_replica
           (Printf.sprintf "[%s, %s]" (Option.value ~default:"-" lo)
              (Option.value ~default:"-" hi)))
    else Ok ()
  in
  let* keys = candidates 0 Sset.empty in
  let keys =
    List.fold_left
      (fun acc key -> if Util.Key_range.mem ~lo ~hi key then Sset.add key acc else acc)
      keys (dirty_keys t)
  in
  Sset.fold
    (fun key acc ->
      let* acc = acc in
      let* v = get t ~key in
      match v with None -> Ok acc | Some v -> Ok ((key, v) :: acc))
    keys (Ok [])
  |> Result.map List.rev

(* Deletes need the same durable acknowledgement as puts, on {e every}
   replica: without version history, a tombstone missing from one replica
   would let {!repair} resurrect the shard from it. So a delete fails fast
   as soon as any placement is unavailable rather than leave that trap. *)
let delete t ~key =
  Obs.Counter.incr t.m.m_deletes;
  tick t;
  Tracecheck.Trace.Recorder.bracket t.trace ~src:"fleet" (Tracecheck.Trace.Delete { key })
    ~outcome:ack_outcome
  @@ fun () ->
  let nodes = placement t key in
  if List.exists (fun node -> not (available t node)) nodes then
    Error (Quorum_not_met { key; acked = 0; needed = t.config.replication })
  else
    let* () =
      List.fold_left
        (fun acc node ->
          let* () = acc in
          attempt t node (fun () -> durable_delete t.stores.(node) ~key))
        (Ok ()) nodes
    in
    Hashtbl.remove t.dirty key;
    Ok ()

let crash_node t ~rng ~node =
  Obs.Counter.incr t.m.m_crashes;
  tick t;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"fleet" "node_crash" [ ("node", string_of_int node) ];
  trace_mark ~node t Tracecheck.Trace.Crash;
  let store = t.stores.(node) in
  (* Recovery itself must not trip injected faults: a power-cycled node
     reads back what the disk durably has, it does not re-roll the fault
     dice that were armed for the workload. *)
  let result =
    Disk.with_faults_suspended (S.disk store) (fun () ->
        S.dirty_reboot store ~rng
          {
            S.flush_index_first = false;
            flush_superblock_first = false;
            persist_probability = 0.5;
            split_pages = true;
          })
  in
  match result with
  | Ok () -> trace_mark ~node t Tracecheck.Trace.Restart
  | Error _ ->
    (* A node that cannot recover is out of the rotation until repaired. *)
    Obs.Counter.incr t.m.m_crash_fail;
    trip_breaker t node

let destroy_node t ~node =
  Obs.Counter.incr t.m.m_destroys;
  tick t;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"fleet" "node_destroy" [ ("node", string_of_int node) ];
  trace_mark ~node t Tracecheck.Trace.Destroy;
  t.stores.(node) <-
    S.create
      {
        t.config.store with
        S.seed = Int64.add t.config.store.S.seed (Int64.of_int ((node * 131) + 7_777));
      };
  (* The replacement hardware is fresh: forget the old node's sins. *)
  note_success t node;
  t.replaced.(node) <- true

(* Faults-suspended direct read of one replica — introspection for the
   chaos checker, never part of the request plane. *)
let peek t ~node ~key =
  let store = t.stores.(node) in
  Disk.with_faults_suspended (S.disk store) (fun () -> S.get store ~key)

type repair_report = {
  shards_scanned : int;
  shards_repaired : int;
  shards_failed : int;
  bytes_moved : int;
}

(* Repair is the breaker's heal path: unlike the request plane it attempts
   every placement regardless of health, so a recovered node's first
   successful copy re-closes its breaker. *)
let repair t =
  Obs.Counter.incr t.m.m_repairs;
  tick t;
  trace_mark t Tracecheck.Trace.Repair_start;
  (* Whether the pass saw every copy: a failed listing, or a failed read
     while looking for a key's copy, may hide a key the replaced nodes
     lack, so such a pass leaves their marks set. *)
  let saw_all = ref true in
  (* The control plane's view: the union of every reachable node's listing
     plus the dirty set (which names keys a down node may be hiding). *)
  let listed =
    Array.fold_left
      (fun acc store ->
        match S.list store with
        | Ok keys -> List.rev_append keys acc
        | Error _ ->
          saw_all := false;
          acc)
      [] t.stores
  in
  let keys = List.sort_uniq String.compare (List.rev_append (dirty_keys t) listed) in
  (* Ground truth per node: a scratch store recovered from a deep copy of
     the node's durable image, built lazily once per pass. A read on the
     live store can answer from volatile staging whose backing write was
     already dropped (a quarantined extent clears its queue), and
     crediting such a ghost copy would drop the dirty-set authority and
     let the next reboot resurrect a stale value over an acknowledged
     one. The durable view cannot lie; it can only under-credit (writes
     made durable later in this same pass), which merely costs a
     redundant re-replication. *)
  let durable_views = Array.make (Array.length t.stores) None in
  let durable_view node =
    match durable_views.(node) with
    | Some view -> view
    | None ->
      let store = t.stores.(node) in
      let scratch = S.of_disk (S.config store) (Disk.copy (S.disk store)) in
      let view = match S.recover scratch with Ok () -> Some scratch | Error _ -> None in
      durable_views.(node) <- Some view;
      view
  in
  let durably_holds node ~key ~value =
    match durable_view node with
    | None -> false
    | Some scratch -> (
      match S.get scratch ~key with Ok (Some v) -> String.equal v value | _ -> false)
  in
  let report = ref { shards_scanned = 0; shards_repaired = 0; shards_failed = 0; bytes_moved = 0 } in
  List.iter
    (fun key ->
      report := { !report with shards_scanned = !report.shards_scanned + 1 };
      let nodes = placement t key in
      (* The copy to converge on: the quorum-acknowledged authority when
         the dirty set holds one, else the best live copy (placement
         order) among the replicas. *)
      let copy =
        match dirty_auth t key with
        | Some v -> Some v
        | None ->
          List.find_map
            (fun node ->
              match S.get t.stores.(node) ~key with
              | Ok (Some v) -> Some v
              | Ok None -> None
              | Error _ ->
                saw_all := false;
                None)
            nodes
      in
      match copy with
      | None ->
        (* Unreadable everywhere: nothing to repair from (a fully deleted
           or never-acknowledged key) — drop the debt. *)
        Hashtbl.remove t.dirty key
      | Some value ->
        let fully_replicated =
          List.fold_left
            (fun all_ok node ->
              match attempt t node (fun () -> S.get t.stores.(node) ~key) with
              | Ok (Some v) when String.equal v value && durably_holds node ~key ~value ->
                all_ok
              | Ok _ | Error _ -> (
                match
                  attempt t node (fun () -> durable_put t.stores.(node) ~key ~value)
                with
                | Ok () ->
                  Obs.Counter.incr t.m.m_repaired;
                  report :=
                    {
                      !report with
                      shards_repaired = !report.shards_repaired + 1;
                      bytes_moved = !report.bytes_moved + String.length value;
                    };
                  all_ok
                | Error _ ->
                  report := { !report with shards_failed = !report.shards_failed + 1 };
                  false))
            true nodes
        in
        if fully_replicated then Hashtbl.remove t.dirty key
        else mark_dirty t key (Some value))
    keys;
  (* Every key now sits on each of its placements, the replaced nodes'
     included. *)
  if !saw_all && !report.shards_failed = 0 then Array.fill t.replaced 0 (node_count t) false;
  trace_mark t Tracecheck.Trace.Repair_done;
  Ok !report

let replica_count t ~key =
  List.fold_left
    (fun n node -> match S.get t.stores.(node) ~key with Ok (Some _) -> n + 1 | _ -> n)
    0 (placement t key)
