module type S = Store_intf.S

(* Reserved extent layout: the superblock and LSM metadata each own an
   alternating pair; everything above is data. *)
let sb_extents = (0, 1)
let meta_extents = (2, 3)
let reserved = [ 0; 1; 2; 3 ]
let first_data_extent = 4

module Make (Index : Store_intf.INDEX) = struct
  type index_error = Index.error

  type error =
    | Out_of_service
    | No_space
    | Io of Io_sched.error
    | Index of index_error
    | Chunk_error of Chunk.Chunk_store.error
    | Superblock_error of Superblock.error
    | Wrong_owner of string

  let pp_error fmt = function
    | Out_of_service -> Format.pp_print_string fmt "store is out of service"
    | No_space -> Format.pp_print_string fmt "out of space"
    | Io e -> Io_sched.pp_error fmt e
    | Index e -> Index.pp_error fmt e
    | Chunk_error e -> Chunk.Chunk_store.pp_error fmt e
    | Superblock_error e -> Superblock.pp_error fmt e
    | Wrong_owner k -> Format.fprintf fmt "chunk owned by wrong shard (expected %S)" k

  (* The classification the fleet's retry/health policy keys on: walk the
     nested error chain down to the layer that knows. *)
  let error_class = function
    | Out_of_service -> `Fatal
    | No_space -> `Resource
    | Io e -> Io_sched.error_class e
    | Index e -> Index.error_class e
    | Chunk_error e -> Chunk.Chunk_store.error_class e
    | Superblock_error e -> Superblock.error_class e
    | Wrong_owner _ -> `Fatal

  (* The [kind] label of a [store.maint_error] series: the constructor. *)
  let error_kinds =
    [|
      "Out_of_service"; "No_space"; "Io"; "Index"; "Chunk_error"; "Superblock_error";
      "Wrong_owner";
    |]

  let error_kind = function
    | Out_of_service -> 0
    | No_space -> 1
    | Io _ -> 2
    | Index _ -> 3
    | Chunk_error _ -> 4
    | Superblock_error _ -> 5
    | Wrong_owner _ -> 6

  (* One [store.maint_error] series per error constructor for maintenance
     op [op], resolved up front so a maintenance domain only increments. *)
  let maint_errors obs ~op =
    Array.map
      (fun kind -> Obs.counter ~labels:[ ("op", op); ("kind", kind) ] obs "store.maint_error")
      error_kinds

  let count_maint_error counters e = Obs.Counter.incr counters.(error_kind e)

  type config = {
    disk : Disk.config;
    max_chunk_payload : int;
    superblock_cadence : int;
    index_flush_threshold : int;
    compact_threshold : int;
    l0_trigger : int;
    level_ratio : int;
    auto_pump : int;
    cache_pages : int;
    cache_write_allocate : bool;
    seed : int64;
  }

  let default_config =
    {
      disk = { Disk.extent_count = 64; pages_per_extent = 64; page_size = 512 };
      max_chunk_payload = 8 * 1024;
      superblock_cadence = 8;
      index_flush_threshold = 32;
      compact_threshold = 6;
      l0_trigger = 4;
      level_ratio = 4;
      auto_pump = 4;
      cache_pages = 128;
      cache_write_allocate = false;
      seed = 0x5EED_CAFEL;
    }

  let test_config =
    {
      disk = { Disk.extent_count = 12; pages_per_extent = 8; page_size = 64 };
      max_chunk_payload = 96;
      superblock_cadence = 0;
      index_flush_threshold = 0;
      compact_threshold = 0;
      l0_trigger = 3;
      level_ratio = 3;
      auto_pump = 0;
      cache_pages = 16;
      cache_write_allocate = false;
      seed = 0x5EED_CAFEL;
    }

  type metrics = {
    m_puts : Obs.Counter.t;
    m_gets : Obs.Counter.t;
    m_deletes : Obs.Counter.t;
    m_scans : Obs.Counter.t;
    m_reclaims : Obs.Counter.t;
    m_gc_fallback : Obs.Counter.t;
    m_recovers : Obs.Counter.t;
    m_dirty_reboots : Obs.Counter.t;
    m_clean_shutdowns : Obs.Counter.t;
    m_value_bytes : Obs.Histogram.t;
    m_put_batches : Obs.Counter.t;
    m_delete_batches : Obs.Counter.t;
    m_batch_ops : Obs.Histogram.t;
    m_batch_fallback : Obs.Counter.t;
    m_flush_index_errors : Obs.Counter.t array;
    m_compact_errors : Obs.Counter.t array;
    m_flush_superblock_errors : Obs.Counter.t array;
  }

  type t = {
    cfg : config;
    disk : Disk.t;
    sched : Io_sched.t;
    cache : Cache.t;
    sb : Superblock.t;
    chunks : Chunk.Chunk_store.t;
    index : Index.t;
    obs : Obs.t;
    m : metrics;
    mutable in_service : bool;
    mutable mutations : int;
    mutable in_flight : int list;
        (** extents holding chunks of an in-progress multi-chunk put, not
            yet referenced by the index: reclamation must not target them *)
  }

  (* Events from every layer land in one ring; this is how many trailing
     events a counterexample report can show. *)
  let default_trace_capacity = 256

  let of_disk ?obs (cfg : config) disk =
    let obs =
      match obs with
      | Some o -> o
      | None -> Obs.create ~scope:"store" ~trace_capacity:default_trace_capacity ()
    in
    (* One registry for the whole stack: the pre-existing disk re-homes its
       handles, every layer above is created pointing at the same [obs]. *)
    Disk.attach_obs disk obs;
    let sched = Io_sched.create ~seed:cfg.seed ~obs disk in
    let cache =
      Cache.create ~capacity_pages:cfg.cache_pages ~write_allocate:cfg.cache_write_allocate
        ~obs sched
    in
    let sb = Superblock.create ~obs sched ~extents:sb_extents ~reserved in
    let rng = Util.Rng.create (Int64.add cfg.seed 17L) in
    let chunks = Chunk.Chunk_store.create ~obs sched ~cache ~superblock:sb ~rng in
    let index = Index.create ~obs chunks ~metadata_extents:meta_extents in
    Index.configure_levels index ~l0_trigger:cfg.l0_trigger ~level_ratio:cfg.level_ratio;
    {
      cfg;
      disk;
      sched;
      cache;
      sb;
      chunks;
      index;
      obs;
      m =
        {
          m_puts = Obs.counter obs "store.put";
          m_gets = Obs.counter obs "store.get";
          m_deletes = Obs.counter obs "store.delete";
          m_scans = Obs.counter obs "store.scan";
          m_reclaims = Obs.counter obs "store.reclaim";
          m_gc_fallback = Obs.counter ~coverage:true obs "store.put.gc_fallback";
          m_recovers = Obs.counter obs "store.recover";
          m_dirty_reboots = Obs.counter obs "store.dirty_reboot";
          m_clean_shutdowns = Obs.counter obs "store.clean_shutdown";
          m_value_bytes = Obs.histogram obs "store.value_bytes";
          m_put_batches = Obs.counter obs "store.put_batch";
          m_delete_batches = Obs.counter obs "store.delete_batch";
          m_batch_ops =
            Obs.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ] obs
              "store.batch_ops";
          m_batch_fallback = Obs.counter ~coverage:true obs "store.put_batch.fallback";
          m_flush_index_errors = maint_errors obs ~op:"flush_index";
          m_compact_errors = maint_errors obs ~op:"compact";
          m_flush_superblock_errors = maint_errors obs ~op:"flush_superblock";
        };
      in_service = true;
      mutations = 0;
      in_flight = [];
    }

  let create ?obs (cfg : config) =
    if cfg.disk.Disk.extent_count <= first_data_extent then
      invalid_arg "Store.create: need more extents than the reserved four";
    of_disk ?obs cfg (Disk.create cfg.disk)

  let config t = t.cfg
  let disk t = t.disk
  let sched t = t.sched
  let chunk_store t = t.chunks
  let obs t = t.obs
  let in_service t = t.in_service
  let index_run_count t = Index.run_count t.index

  let ( let* ) = Result.bind
  let chunk_err r = Result.map_error (fun e -> Chunk_error e) r
  let index_err r = Result.map_error (fun e -> Index e) r
  let sb_err r = Result.map_error (fun e -> Superblock_error e) r

  let check_service t = if t.in_service then Ok () else Error Out_of_service

  let flush_superblock t = sb_err (Superblock.flush t.sb)

  let pump t n = Io_sched.pump ~max_ios:n t.sched

  (* {2 Reclamation} *)

  (* Padded frame footprint of a locator on its extent. *)
  let footprint t (loc : Chunk.Locator.t) =
    let ps = Io_sched.page_size t.sched in
    (loc.Chunk.Locator.frame_len + ps - 1) / ps * ps

  let live_bytes_map t =
    let live = Hashtbl.create 16 in
    let add (loc : Chunk.Locator.t) =
      if loc.Chunk.Locator.epoch = Io_sched.epoch t.sched ~extent:loc.Chunk.Locator.extent then begin
        let prev = Option.value ~default:0 (Hashtbl.find_opt live loc.Chunk.Locator.extent) in
        Hashtbl.replace live loc.Chunk.Locator.extent (prev + footprint t loc)
      end
    in
    let* entries = index_err (Index.scan t.index ~lo:None ~hi:None) in
    List.iter (fun (_, locs) -> List.iter add locs) entries;
    List.iter (fun (_, loc) -> add loc) (Index.run_locators t.index);
    Ok live

  let reclaimable_extents t =
    match live_bytes_map t with
    | Error _ -> []
    | Ok live ->
      let data_extents =
        List.filter (fun e -> e >= first_data_extent) (Superblock.data_extents t.sb)
      in
      data_extents
      |> List.map (fun extent ->
             let used = Io_sched.soft_ptr t.sched ~extent in
             let alive = Option.value ~default:0 (Hashtbl.find_opt live extent) in
             (extent, used - alive))
      |> List.filter (fun (_, garbage) -> garbage > 0)
      |> List.sort (fun (_, a) (_, b) -> compare b a)

  exception Reclaim_abort of error

  let reclaim t ?extent () =
    let* () = check_service t in
    (* Reclamation must not run against volatile staging: liveness here is
       judged through the memtable (shadowed drops, relocated staged
       references), so every reset staged with a non-empty memtable waits
       on the flush promise. If the flush itself cannot proceed, such a
       reset can never retire — and a reclaim loop under space pressure
       would convert every free extent into that state, wedging the store
       (the flush then needs an extent only those resets can return).
       Flush first; if we cannot, reclaim nothing. *)
    let flushed =
      Index.memtable_size t.index = 0
      ||
      match Index.flush t.index ~for_shutdown:false with
      | Ok (_ : Dep.t) -> true
      | Error (_ : Index.error) -> false
    in
    if not flushed then Ok None
    else
    let target =
      match extent with
      | Some e -> Some e
      | None -> (
        (* In-flight extents hold chunks written by an ongoing multi-chunk
           put, not yet referenced by the index; a scan would wrongly
           classify them as dead. *)
        match List.filter (fun (e, _) -> not (List.mem e t.in_flight)) (reclaimable_extents t) with
        | (e, _) :: _ -> Some e
        | [] -> None)
    in
    match target with
    | None -> Ok None
    | Some extent ->
      Obs.Counter.incr t.m.m_reclaims;
      if Obs.tracing t.obs then
        Obs.emit t.obs ~layer:"store" "reclaim" [ ("extent", string_of_int extent) ];
      let classify owner loc =
        match owner with
        | Chunk.Chunk_format.Shard key -> (
          match Index.get t.index ~key with
          | Ok (Some locs) when List.exists (Chunk.Locator.equal loc) locs -> `Live
          | Ok _ -> `Dead
          | Error _ -> `Live (* conservative: never drop on lookup failure *))
        | Chunk.Chunk_format.Index_run id ->
          if
            List.exists
              (fun (rid, rloc) -> rid = id && Chunk.Locator.equal rloc loc)
              (Index.run_locators t.index)
          then `Live
          else `Dead
      in
      let relocate owner ~old_loc ~new_loc ~new_dep =
        match owner with
        | Chunk.Chunk_format.Shard key ->
          Index.update_locator t.index ~key ~old_loc ~new_loc ~new_dep
        | Chunk.Chunk_format.Index_run run_id -> (
          match Index.relocate_run t.index ~run_id ~new_loc ~new_dep with
          | Ok dep -> dep
          | Error e -> raise (Reclaim_abort (Index e)))
      in
      (match
         Chunk.Chunk_store.reclaim t.chunks ~extent ~index_basis:(Index.basis_dep t.index)
           ~classify ~relocate
       with
      | Ok dep ->
        Index.note_extent_reset t.index;
        Ok (Some dep)
      | Error Chunk.Chunk_store.No_space ->
        (* Not enough headroom to evacuate: nothing was reset, nothing
           freed. The caller sees "no reclaimable space". *)
        Ok None
      | Error e -> Error (Chunk_error e)
      | exception Reclaim_abort e -> Error e)

  (* Flushes and compactions themselves write chunks, so extent exhaustion
     inside them is cured the same way as on the put path: reclaim what we
     can and retry once. A failed flush attempt leaves already-written runs
     referenced (they are shadowed, never corrupt) and the memtable intact,
     so the retry is safe. *)
  (* Data appends — and the metadata records that reference them — wait on
     the superblock cadence promise; until a record binds it, no pending
     reset can retire and reclamation cannot return a single extent. The
     request plane binds the promise on its own schedule, but under space
     pressure that schedule may never come back around (a full disk fails
     the very put whose acknowledgement would have flushed the superblock),
     so binding the promise is part of garbage collection too. The record
     itself has trivial input and lives on a reserved extent, so it is
     always writable; the pump then drains the whole chain — record, data
     appends, metadata records, resets — in one pass. *)
  let unwedge_writeback t =
    (match Superblock.flush t.sb with Ok (_ : Dep.t) -> () | Error (_ : Superblock.error) -> ());
    ignore (Io_sched.pump t.sched)

  (* The other promise reclamation can wait on is the index's flush promise:
     a reclaim decided against volatile staging (a shadowed drop, a
     relocated staged reference) may only destroy the old bytes once the
     staging is durable. Best-effort flush the memtable before reclaiming so
     the resets we are about to stage carry durable deps — run writes are
     [privileged] at the allocator, so this can spend the reserve extent
     that plain data puts must leave behind. *)
  let bind_flush_promise t =
    if Index.memtable_size t.index > 0 then
      (match Index.flush t.index ~for_shutdown:false with
      | Ok (_ : Dep.t) -> ()
      | Error (_ : Index.error) -> ());
    unwedge_writeback t

  (* Reclamation that could not complete for lack of resources is "nothing
     reclaimed", not a hard failure. *)
  let reclaim_soft ?extent t =
    match reclaim t ?extent () with
    | Ok r -> Ok r
    | Error No_space -> Ok None
    | Error (Index e) when Index.error_is_no_space e -> Ok None
    | Error e -> Error e

  (* Every iteration binds and drains: the resets staged by one reclaim
     reference the promise current at staging time, so they can only retire
     after the {e next} record — flushing once at the end would leave the
     last round's resets pending and the extents they cover unusable. *)
  let rec drain_reclaim t =
    let* r = reclaim_soft t in
    unwedge_writeback t;
    match r with
    | Some _ -> drain_reclaim t
    | None -> Ok ()

  (* Reclamation that waits for an allocation to fail drains every extent
     that holds garbage inside that one call: about a thousand extents,
     half a second, on a 1,024-extent disk. A maintenance tick reclaims
     ahead instead: once fewer than an eighth of the extents are free, a
     batch of the extents with the most garbage, so the work spreads over
     the ticks and the drain stays the last resort. One liveness pass
     ranks the batch; [reclaim] still classifies every chunk it moves. *)
  let ahead_batch = 16

  let reclaim_ahead t =
    if Superblock.free_count t.sb >= t.cfg.disk.Disk.extent_count / 8 then Ok 0
    else
      let rec go n = function
        | (extent, _) :: rest when n < ahead_batch -> (
          let* r = reclaim_soft ~extent t in
          unwedge_writeback t;
          match r with Some _ -> go (n + 1) rest | None -> Ok n)
        | _ -> Ok n
      in
      go 0 (reclaimable_extents t)

  let normalize_no_space = function
    | Ok dep -> Ok dep
    | Error e when Index.error_is_no_space e -> Error No_space
    | Error e -> Error (Index e)

  let compact t =
    match Index.compact t.index with
    | Ok dep -> Ok dep
    | Error e when Index.error_is_no_space e ->
      bind_flush_promise t;
      let* () = drain_reclaim t in
      normalize_no_space (Index.compact t.index)
    | Error e -> Error (Index e)

  (* Space-pressure compaction is always a {e major} compaction: merge
     every run into one generation so all superseded chunks become garbage
     at once. Incremental levelled steps are wrong here — each rewrites a
     victim into fresh chunks, churning extents faster than reclamation
     returns them. The trigger-driven steps handle steady-state
     maintenance; this is the escape hatch. *)
  let compact_gc t =
    match Index.compact_major t.index with
    | Ok _ -> Ok ()
    | Error e when Index.error_is_no_space e -> (
      bind_flush_promise t;
      let* () = drain_reclaim t in
      match Index.compact_major t.index with
      | Ok _ -> Ok ()
      | Error e when Index.error_is_no_space e -> Ok ()
      | Error e -> Error (Index e))
    | Error e -> Error (Index e)

  (* A rejected flush is retried after garbage collection: reclamation
     frees extents, and compaction also shrinks the metadata record (an
     oversized run list is resource pressure too). *)
  let flush_index_gc t ~for_shutdown =
    match Index.flush t.index ~for_shutdown with
    | Ok dep -> Ok dep
    | Error e when Index.error_is_no_space e -> (
      unwedge_writeback t;
      let* () = drain_reclaim t in
      match Index.flush t.index ~for_shutdown with
      | Ok dep -> Ok dep
      | Error e when Index.error_is_no_space e ->
        let* () = compact_gc t in
        let* () = drain_reclaim t in
        normalize_no_space (Index.flush t.index ~for_shutdown)
      | Error e -> Error (Index e))
    | Error e -> Error (Index e)

  let flush_index t = flush_index_gc t ~for_shutdown:false

  (* {2 Request plane} *)

  let split_value t value =
    let max_len = t.cfg.max_chunk_payload in
    let rec go off acc =
      if off >= String.length value then List.rev acc
      else begin
        let len = min max_len (String.length value - off) in
        go (off + len) (String.sub value off len :: acc)
      end
    in
    go 0 []

  (* Store one chunk; on extent exhaustion, garbage-collect (reclaim, then
     compact to orphan old runs, then reclaim again) and retry. *)
  let put_chunk t ~owner ~payload =
    let attempt () =
      match Chunk.Chunk_store.put t.chunks ~owner ~payload with
      | Ok r -> Ok (Some r)
      | Error Chunk.Chunk_store.No_space -> Ok None
      | Error e -> Error (Chunk_error e)
    in
    let* first = attempt () in
    match first with
    | Some r -> Ok r
    | None -> (
      Obs.Counter.incr t.m.m_gc_fallback;
      if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "gc_fallback" [];
      bind_flush_promise t;
      let* _ = reclaim_soft t in
      unwedge_writeback t;
      let* second = attempt () in
      match second with
      | Some r -> Ok r
      | None -> (
        let* () = compact_gc t in
        let* () = drain_reclaim t in
        (* Draining the scheduler lets pending resets complete, returning
           reclaimed extents to the allocatable pool. *)
        ignore (Io_sched.pump t.sched);
        let* third = attempt () in
        match third with
        | Some r -> Ok r
        | None -> Error No_space))

  (* Post-mutation maintenance, amortized over [n] operations: the flush /
     compact / cadence checks run once per batch, and batched writeback
     ([Io_sched.submit_batch]) replaces the per-op randomized pump when
     [n > 1]. For [n = 1] the behaviour (including the cadence arithmetic
     and the RNG consumption of [pump]) is exactly the pre-batching one. *)
  let after_mutations t n =
    let counted counters = function Ok _ -> () | Error e -> count_maint_error counters e in
    if n > 0 then begin
      let before = t.mutations in
      t.mutations <- before + n;
      if
        t.cfg.index_flush_threshold > 0
        && Index.memtable_size t.index >= t.cfg.index_flush_threshold
      then counted t.m.m_flush_index_errors (flush_index t);
      if
        t.cfg.compact_threshold > 0
        && (Index.run_count t.index > t.cfg.compact_threshold
           || Index.compaction_due t.index)
      then counted t.m.m_compact_errors (compact t);
      if
        t.cfg.superblock_cadence > 0
        && t.mutations / t.cfg.superblock_cadence > before / t.cfg.superblock_cadence
        && Superblock.dirty t.sb
      then counted t.m.m_flush_superblock_errors (flush_superblock t);
      if t.cfg.auto_pump > 0 then
        if n = 1 then ignore (pump t t.cfg.auto_pump)
        else ignore (Io_sched.submit_batch ~max_ios:(t.cfg.auto_pump * n) t.sched)
    end

  let after_mutation t = after_mutations t 1

  (* The body of [put] minus the service check and maintenance — batch
     entry points pay those once for N ops. *)
  let put_locked t ~key ~value =
    Obs.Counter.incr t.m.m_puts;
    Obs.Histogram.observe t.m.m_value_bytes (float_of_int (String.length value));
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"store" "put"
        [ ("key", key); ("bytes", string_of_int (String.length value)) ];
    let owner = Chunk.Chunk_format.Shard key in
    let* locators, value_dep =
      Fun.protect
        ~finally:(fun () -> t.in_flight <- [])
        (fun () ->
          List.fold_left
            (fun acc payload ->
              let* locs, dep = acc in
              t.in_flight <-
                List.map (fun (l : Chunk.Locator.t) -> l.Chunk.Locator.extent) locs;
              let* loc, chunk_dep = put_chunk t ~owner ~payload in
              Ok (loc :: locs, Dep.and_ dep chunk_dep))
            (Ok ([], Dep.trivial))
            (split_value t value))
    in
    Ok (Index.put t.index ~key ~locators:(List.rev locators) ~value_dep)

  let put t ~key ~value =
    let* () = check_service t in
    let* dep = put_locked t ~key ~value in
    after_mutation t;
    Ok dep

  (* Resolve a locator list to the value bytes, checking shard ownership
     of every chunk — shared by [get] and [scan]. *)
  let read_value t ~key locs =
    let payload loc =
      let* chunk = chunk_err (Chunk.Chunk_store.get t.chunks loc) in
      match chunk.Chunk.Chunk_format.owner with
      | Chunk.Chunk_format.Shard k when String.equal k key -> Ok chunk.Chunk.Chunk_format.payload
      | Chunk.Chunk_format.Shard _ | Chunk.Chunk_format.Index_run _ -> Error (Wrong_owner key)
    in
    match locs with
    | [ loc ] -> payload loc
    | _ ->
      let rec go acc = function
        | [] -> Ok (String.concat "" (List.rev acc))
        | loc :: rest ->
          let* p = payload loc in
          go (p :: acc) rest
      in
      go [] locs

  let get t ~key =
    let* () = check_service t in
    Obs.Counter.incr t.m.m_gets;
    let* locs = index_err (Index.get t.index ~key) in
    match locs with
    | None -> Ok None
    | Some locs ->
      let* value = read_value t ~key locs in
      Ok (Some value)

  (* {2 Range scans} *)

  let scan t ?lo ?hi () =
    let* () = check_service t in
    Obs.Counter.incr t.m.m_scans;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"store" "scan"
        [ ("lo", Option.value ~default:"-" lo); ("hi", Option.value ~default:"-" hi) ];
    let* entries = index_err (Index.scan t.index ~lo ~hi) in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | (key, locs) :: rest ->
        let* value = read_value t ~key locs in
        resolve ((key, value) :: acc) rest
    in
    resolve [] entries

  let level_runs t = Index.level_runs t.index
  let level_invariants t = Index.level_invariants t.index

  let delete_locked t ~key =
    Obs.Counter.incr t.m.m_deletes;
    if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "delete" [ ("key", key) ];
    Index.delete t.index ~key

  let delete t ~key =
    let* () = check_service t in
    let dep = delete_locked t ~key in
    after_mutation t;
    Ok dep

  (* {2 Batched request plane (group commit)} *)

  type batch_result = { results : (Dep.t, error) result list; barrier : Dep.t }

  let barrier_of results =
    Dep.all (List.filter_map (function Ok d -> Some d | Error _ -> None) results)

  let put_batch t ops =
    let* () = check_service t in
    let n = List.length ops in
    Obs.Counter.incr t.m.m_put_batches;
    Obs.Histogram.observe t.m.m_batch_ops (float_of_int n);
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"store" "put_batch" [ ("ops", string_of_int n) ];
    (* One memtable reservation for the whole batch: flush up front when the
       N inserts would cross the threshold, instead of checking per op. *)
    if
      t.cfg.index_flush_threshold > 0
      && Index.memtable_size t.index > 0
      && Index.memtable_size t.index + n > t.cfg.index_flush_threshold
    then ignore (flush_index t);
    let per_op =
      List.map
        (fun (key, value) ->
          (key, value, List.map (fun p -> (Chunk.Chunk_format.Shard key, p)) (split_value t value)))
        ops
    in
    let items = List.concat_map (fun (_, _, items) -> items) per_op in
    let results =
      match Chunk.Chunk_store.put_batch t.chunks ~items with
      | Ok chunk_results ->
        (* Coalesced allocation succeeded for every chunk: regroup the
           results per op (item order is the concatenation of the per-op
           splits) and install the index entries, which cannot fail. *)
        let rest = ref chunk_results in
        List.map
          (fun (key, value, op_items) ->
            let k = List.length op_items in
            let rec take k acc l =
              if k = 0 then (List.rev acc, l)
              else
                match l with
                | [] -> assert false
                | x :: tl -> take (k - 1) (x :: acc) tl
            in
            let mine, others = take k [] !rest in
            rest := others;
            (* Telemetry is batch-granularity on this path: the [put_batch]
               trace above covers the group; only the counters are per op. *)
            Obs.Counter.incr t.m.m_puts;
            Obs.Histogram.observe t.m.m_value_bytes (float_of_int (String.length value));
            let locators = List.map fst mine in
            let value_dep = Dep.all (List.map snd mine) in
            Ok (Index.put t.index ~key ~locators ~value_dep))
          per_op
      | Error _ ->
        (* Group allocation hit resource pressure (or an IO fault): fall
           back to the sequential path per op, which carries the reclaim /
           compact GC ladder, and record per-op outcomes. *)
        Obs.Counter.incr t.m.m_batch_fallback;
        if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "put_batch_fallback" [];
        List.map (fun (key, value, _) -> put_locked t ~key ~value) per_op
    in
    after_mutations t n;
    Ok { results; barrier = barrier_of results }

  let delete_batch t keys =
    let* () = check_service t in
    let n = List.length keys in
    Obs.Counter.incr t.m.m_delete_batches;
    Obs.Histogram.observe t.m.m_batch_ops (float_of_int n);
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"store" "delete_batch" [ ("ops", string_of_int n) ];
    let results = List.map (fun key -> Ok (delete_locked t ~key)) keys in
    after_mutations t n;
    Ok { results; barrier = barrier_of results }

  let list t =
    let* () = check_service t in
    let* entries = index_err (Index.scan t.index ~lo:None ~hi:None) in
    Ok (List.map fst entries)

  let locators t ~key = index_err (Index.get t.index ~key)

  (* {2 Crash and recovery} *)

  type reboot_spec = {
    flush_index_first : bool;
    flush_superblock_first : bool;
    persist_probability : float;
    split_pages : bool;
  }

  let clean_reboot_spec =
    {
      flush_index_first = true;
      flush_superblock_first = true;
      persist_probability = 1.0;
      split_pages = false;
    }

  let recover t =
    Obs.Counter.incr t.m.m_recovers;
    if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "recover" [];
    (* Recovery reads back what the disk durably has; it does not re-roll
       the fault dice. An armed one-shot fault firing mid-recovery would
       abort the reload halfway (stale index refs over a reset cache) and
       desynchronize every crash checker built on reboot determinism. *)
    Disk.with_faults_suspended t.disk (fun () ->
        (* A restart loses volatile state: staged writes that never reached
           the disk must not be visible to the recovery scans — and neither
           may cached pages from before the crash, since the index reloads
           run contents through the cache while recovering. *)
        Io_sched.discard_volatile t.sched;
        Cache.invalidate_all t.cache;
        ignore (Superblock.recover t.sb);
        let* () = index_err (Index.recover t.index) in
        Chunk.Chunk_store.close_open_extent t.chunks;
        t.in_service <- true;
        Ok ())

  let dirty_reboot t ~rng spec =
    Obs.Counter.incr t.m.m_dirty_reboots;
    if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "dirty_reboot" [];
    if spec.flush_index_first then ignore (Index.flush t.index ~for_shutdown:false);
    if spec.flush_superblock_first then ignore (Superblock.flush t.sb);
    let (_ : Io_sched.crash_report) =
      Io_sched.crash t.sched ~rng ~persist_probability:spec.persist_probability
        ~split_pages:spec.split_pages
    in
    recover t

  let clean_shutdown t =
    Obs.Counter.incr t.m.m_clean_shutdowns;
    if Obs.tracing t.obs then Obs.emit t.obs ~layer:"store" "clean_shutdown" [];
    let* _dep = flush_index_gc t ~for_shutdown:true in
    let* _dep = sb_err (Superblock.flush t.sb) in
    Result.map_error (fun e -> Io e) (Io_sched.flush t.sched)

  (* {2 Control plane} *)

  let remove_from_service t =
    let* () = check_service t in
    (* Fault #4: shards could be lost if a disk was removed from service
       and then later returned — the defect skips persisting the memtable
       on the way out. *)
    let* _dep =
      if Faults.enabled Faults.F4_disk_return_loses_shards then begin
        Faults.record_fired Faults.F4_disk_return_loses_shards;
        Ok Dep.trivial
      end
      else flush_index_gc t ~for_shutdown:true
    in
    let* _dep = sb_err (Superblock.flush t.sb) in
    let* () = Result.map_error (fun e -> Io e) (Io_sched.flush t.sched) in
    t.in_service <- false;
    Ok ()

  let return_to_service t =
    if t.in_service then Ok ()
    else begin
      let* () = recover t in
      t.in_service <- true;
      Ok ()
    end
end

module Default = Make (struct
  include Lsm.Index

  let create ?obs chunks ~metadata_extents = Lsm.Index.create ?obs chunks ~metadata_extents
end)

(* {2 The shared-state entry point} *)

module Shared = struct
  type error = Default.error

  type metrics = {
    m_puts : Obs.Counter.t;
    m_gets : Obs.Counter.t;
    m_deletes : Obs.Counter.t;
    m_scans : Obs.Counter.t;
    m_staged_hits : Obs.Counter.t;
    m_flushes : Obs.Counter.t;
    m_drained : Obs.Counter.t;
    m_stack_holds : Obs.Counter.t;  (* stack write sections taken by flushes *)
    m_compacts : Obs.Counter.t;
    m_reclaims : Obs.Counter.t;
    m_reboots : Obs.Counter.t;
  }

  type t = {
    base : Default.t;
    staging : string option Conc.Shard_table.t;  (* None = staged tombstone *)
    stack : Conc.Rwlock.t;  (* guards every [base] access *)
    maint : Conc.Rwlock.t;  (* serializes the maintenance plane; first in the lock order *)
    flush_chunk : int;  (* ops applied per stack hold during a flush; 0 = whole drain *)
    trace : Tracecheck.Trace.Recorder.t option;
    obs : Obs.t;
    m : metrics;
  }

  let create ?(shards = 8) ?(flush_chunk = 32) ?obs ?trace cfg =
    let obs =
      match obs with
      | Some o ->
        (* The trace ring is single-domain; this store is not. *)
        Obs.set_tracing o false;
        o
      | None -> Obs.create ~scope:"shared-store" ()
    in
    {
      base = Default.create ~obs cfg;
      staging = Conc.Shard_table.create ~shards ();
      stack = Conc.Rwlock.create ();
      maint = Conc.Rwlock.create ();
      flush_chunk;
      trace;
      obs;
      m =
        {
          m_puts = Obs.counter obs "shared.put";
          m_gets = Obs.counter obs "shared.get";
          m_deletes = Obs.counter obs "shared.delete";
          m_scans = Obs.counter obs "shared.scan";
          m_staged_hits = Obs.counter ~coverage:true obs "shared.get.staged";
          m_flushes = Obs.counter obs "shared.flush";
          m_drained = Obs.counter obs "shared.flush.drained";
          m_stack_holds = Obs.counter obs "shared.flush.stack_holds";
          m_compacts = Obs.counter obs "shared.maint.compact";
          m_reclaims = Obs.counter obs "shared.maint.reclaim";
          m_reboots = Obs.counter obs "shared.maint.reboot";
        };
    }

  let obs t = t.obs
  let store t = t.base
  let shards t = Conc.Shard_table.shards t.staging
  let staged_count t = Conc.Shard_table.size t.staging

  (* Wire-trace hooks. Each operation runs inside [Recorder.bracket], so
     recorder calls sit strictly outside the staging and stack lock
     closures (the trace lock is a leaf); the recorded interval therefore
     contains the operation's linearization point.

     Staging under the shard write lock is the linearization point of a
     mutation: once the lock is released the new value is visible to
     every get of the key, whether or not it has been flushed down. *)
  let put t ~key ~value =
    Obs.Counter.incr t.m.m_puts;
    Tracecheck.Trace.Recorder.bracket t.trace ~src:"shared" (Tracecheck.Trace.Put { key; value })
      ~outcome:(fun _ -> Tracecheck.Trace.Acked)
    @@ fun () ->
    Conc.Shard_table.with_key_write t.staging key (fun tbl ->
        Hashtbl.replace tbl key (Some value));
    Ok ()

  let delete t ~key =
    Obs.Counter.incr t.m.m_deletes;
    Tracecheck.Trace.Recorder.bracket t.trace ~src:"shared" (Tracecheck.Trace.Delete { key })
      ~outcome:(fun _ -> Tracecheck.Trace.Acked)
    @@ fun () ->
    Conc.Shard_table.with_key_write t.staging key (fun tbl -> Hashtbl.replace tbl key None);
    Ok ()

  (* The shard read lock is held across BOTH the staged probe and the
     base read: a flush of this shard cannot slide in between, so a get
     observes either (staged value) or (post-flush base value), never
     the window where the key is in neither place. *)
  let get t ~key =
    Obs.Counter.incr t.m.m_gets;
    Tracecheck.Trace.Recorder.bracket t.trace ~src:"shared" (Tracecheck.Trace.Get { key })
      ~outcome:(function
        | Ok v -> Tracecheck.Trace.Got v
        | Error _ -> Tracecheck.Trace.Unavailable)
    @@ fun () ->
    Conc.Shard_table.with_key_read t.staging key (fun tbl ->
        match Hashtbl.find_opt tbl key with
        | Some v ->
          Obs.Counter.incr t.m.m_staged_hits;
          Ok v
        | None -> Conc.Rwlock.with_read t.stack (fun () -> Default.get t.base ~key))

  (* Per-op outcomes of a staged batch, aligned with the per-op
     [Store_intf.S.batch_result] shape: staging itself cannot fail per op
     today, but callers get the same report-per-op contract as the
     sequential store instead of a bare unit. *)
  type batch_result = { results : (unit, error) result list }

  (* Batch staging: per-shard groups, each staged under one shard write
     lock acquisition, shards visited in ascending index order (the
     global lock order). Within a shard the original op order is kept,
     so a later op on the same key wins, as in the sequential loop. *)
  let stage_batch t entries =
    let by_shard = Array.make (shards t) [] in
    List.iter
      (fun (k, v) ->
        let i = Conc.Shard_table.shard_of t.staging k in
        by_shard.(i) <- (k, v) :: by_shard.(i))
      entries;
    Array.iteri
      (fun i group ->
        if group <> [] then
          Conc.Shard_table.with_shard_write t.staging i (fun tbl ->
              List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (List.rev group)))
      by_shard

  let traced_batch t entries =
    Tracecheck.Trace.Recorder.bracket t.trace ~src:"shared" (Tracecheck.Trace.Batch entries)
      ~outcome:(fun _ -> Tracecheck.Trace.Batch_done (List.map (fun _ -> true) entries))
    @@ fun () ->
    stage_batch t entries;
    Ok { results = List.map (fun _ -> Ok ()) entries }

  let put_batch t ops =
    Obs.Counter.incr t.m.m_puts;
    traced_batch t (List.map (fun (k, v) -> (k, Some v)) ops)

  let delete_batch t keys =
    Obs.Counter.incr t.m.m_deletes;
    traced_batch t (List.map (fun k -> (k, None)) keys)

  let first_batch_error (r : Default.batch_result) =
    List.find_map (function Error e -> Some e | Ok _ -> None) r.Default.results

  let check_batch = function
    | Error e -> Error e
    | Ok r -> (match first_batch_error r with Some e -> Error e | None -> Ok ())

  (* Split [l] into groups of at most [n], preserving order. *)
  let chunked n l =
    let rec go acc cur len = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if len = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (len + 1) rest
    in
    go [] [] 0 l

  (* Drain one shard into the base store. The shard write lock covers the
     whole drain — a get of one of THIS shard's keys blocks, so it can
     never observe the window where a key is in neither staging nor base
     — but the stack write lock is narrowed: with [flush_chunk > 0] it is
     taken per chunk of that many ops, so foreground gets on OTHER shards
     (shard read + stack read) keep flowing between chunks.
     [flush_chunk = 0] restores the coarse protocol (one stack hold
     across the whole drain) — the global-stack-lock baseline that
     [bench/maint_bench.exe] measures contention against.

     Error semantics: on any batch error the staging table is left
     intact. Chunks already applied below are harmless — staging still
     shadows them, and re-running the flush re-applies the same values
     idempotently — so an acked mutation is never dropped. *)
  let flush_shard_exn t i =
    Conc.Shard_table.with_shard_write t.staging i (fun tbl ->
        let puts = Util.Tbl.fold_sorted (fun k v acc ->
            match v with Some v -> (k, v) :: acc | None -> acc) tbl []
        in
        let dels = Util.Tbl.fold_sorted (fun k v acc ->
            match v with None -> k :: acc | Some _ -> acc) tbl []
        in
        let drained = Hashtbl.length tbl in
        let ( let* ) = Result.bind in
        let res =
          if puts = [] && dels = [] then Ok ()
          else if t.flush_chunk <= 0 then
            Conc.Rwlock.with_write t.stack (fun () ->
                Obs.Counter.incr t.m.m_stack_holds;
                let* () =
                  if puts = [] then Ok () else check_batch (Default.put_batch t.base puts)
                in
                if dels = [] then Ok () else check_batch (Default.delete_batch t.base dels))
          else
            let apply f groups =
              List.fold_left
                (fun acc group ->
                  let* () = acc in
                  Conc.Rwlock.with_write t.stack (fun () ->
                      Obs.Counter.incr t.m.m_stack_holds;
                      check_batch (f group)))
                (Ok ()) groups
            in
            let* () =
              if puts = [] then Ok ()
              else apply (Default.put_batch t.base) (chunked t.flush_chunk puts)
            in
            if dels = [] then Ok ()
            else apply (Default.delete_batch t.base) (chunked t.flush_chunk dels)
        in
        match res with
        | Ok () ->
          Hashtbl.reset tbl;
          Obs.Counter.add t.m.m_drained drained;
          Ok drained
        | Error e -> Error e)

  let mark_flush t =
    match t.trace with
    | Some r -> Tracecheck.Trace.Recorder.mark r ~src:"shared" Tracecheck.Trace.Flush
    | None -> ()

  (* {2 Maintenance plane}

     Every operation below first takes the [maint] write lock — class
     "maint", FIRST in the global order maint < shard < stack < cache —
     so maintenance is serialized against itself (two domains calling
     [flush] and [compact] never interleave structurally) while staying
     free to take any shard or stack lock underneath. Foreground ops
     never touch the maint lock, so maintenance costs them nothing on
     the hot path. *)

  (* Flush every shard, ascending. On an error the failing shard (and
     the ones after it) keep their staged entries — acked mutations are
     never dropped, they stay visible from staging. *)
  let flush t =
    Obs.Counter.incr t.m.m_flushes;
    let res =
      Conc.Rwlock.with_write t.maint (fun () ->
          let rec go i drained =
            if i >= shards t then Ok drained
            else
              match flush_shard_exn t i with
              | Ok n -> go (i + 1) (drained + n)
              | Error e -> Error e
          in
          go 0 0)
    in
    mark_flush t;
    res

  let flush_shard t i =
    if i < 0 || i >= shards t then invalid_arg "Store.Shared.flush_shard: shard out of range";
    Obs.Counter.incr t.m.m_flushes;
    let res = Conc.Rwlock.with_write t.maint (fun () -> flush_shard_exn t i) in
    mark_flush t;
    res

  (* Structural maintenance on the base store needs no shard lock —
     staging is untouched, and the stack write lock alone orders it
     against every foreground read of the base. *)
  let compact t =
    Obs.Counter.incr t.m.m_compacts;
    Conc.Rwlock.with_write t.maint (fun () ->
        Conc.Rwlock.with_write t.stack (fun () ->
            Result.map (fun (_ : Dep.t) -> ()) (Default.compact t.base)))

  let reclaim t =
    Obs.Counter.incr t.m.m_reclaims;
    Conc.Rwlock.with_write t.maint (fun () ->
        Conc.Rwlock.with_write t.stack (fun () ->
            Result.map Option.is_some (Default.reclaim t.base ())))

  (* Drain every staged entry (an acked mutation must reach the disk),
     then flush and drain the base store below. *)
  let clean_shutdown t =
    Conc.Rwlock.with_write t.maint (fun () ->
        let ( let* ) = Result.bind in
        let rec go i =
          if i >= shards t then Ok ()
          else match flush_shard_exn t i with Ok _ -> go (i + 1) | Error e -> Error e
        in
        let* () = go 0 in
        Conc.Rwlock.with_write t.stack (fun () -> Default.clean_shutdown t.base))

  (* A dirty reboot models a crash: staged entries are volatile state and
     are DROPPED — acked-but-unflushed mutations are lost exactly like
     the memtable below loses its unflushed entries, which is why crash
     workloads sequence this after the racing domains have joined (or
     account for the loss in their model). All shard write locks are
     taken (ascending) around the stack write lock so no foreground op is
     mid-flight when volatile state vanishes. *)
  let dirty_reboot t ~rng spec =
    Obs.Counter.incr t.m.m_reboots;
    Conc.Rwlock.with_write t.maint (fun () ->
        Conc.Shard_table.with_all_write t.staging (fun tables ->
            Array.iter Hashtbl.reset tables;
            Conc.Rwlock.with_write t.stack (fun () -> Default.dirty_reboot t.base ~rng spec)))

  (* The dedicated maintenance domain: a [Conc.Domains.Worker] stepping
     round-robin shard flushes with periodic compact/reclaim, racing
     foreground domains through the ops above (each step takes the maint
     lock per op, so a foreground [flush] still slots in between). *)
  module Maint = struct
    type stats = {
      steps : int;
      flushes : int;
      drained : int;
      compacts : int;
      reclaims : int;
      errors : int;
    }

    type worker = {
      w : Conc.Domains.Worker.t;
      stats : stats ref;  (* written only by the worker domain; read after the join *)
    }

    let start ?(compact_every = 0) ?(reclaim_every = 0) t =
      let stats =
        ref { steps = 0; flushes = 0; drained = 0; compacts = 0; reclaims = 0; errors = 0 }
      in
      let bump f = stats := f !stats in
      (* All three refs below are owned by the worker domain (written and
         read only inside [step]); the join in [stop] publishes them. *)
      let idle = ref 0 in
      (* drains since the last compact / compacts since the last reclaim:
         maintenance follows the data, it doesn't run on a free-spinning
         clock. A worker that compacts the whole LSM thousands of times a
         second over an idle store is pure foreground starvation. *)
      let dirty = ref 0 and compacted = ref 0 in
      let flush_errors = Default.maint_errors t.obs ~op:"flush_shard"
      and compact_errors = Default.maint_errors t.obs ~op:"compact"
      and reclaim_errors = Default.maint_errors t.obs ~op:"reclaim" in
      let failed counters e =
        Default.count_maint_error counters e;
        bump (fun s -> { s with errors = s.errors + 1 })
      in
      let step n =
        let shard = n mod shards t in
        (* Cheap reader-side probe: skip clean shards without touching
           any write lock, and back off while the store stays idle so a
           busy foreground never contends with a no-op flush loop. *)
        let staged =
          Conc.Shard_table.with_shard_read t.staging shard (fun tbl -> Hashtbl.length tbl)
        in
        if staged = 0 then begin
          idle := min (!idle + 1) 64;
          for _ = 1 to !idle * 64 do
            Conc.Domains.relax ()
          done
        end
        else begin
          idle := 0;
          match flush_shard t shard with
          | Ok d ->
            dirty := !dirty + d;
            bump (fun s -> { s with flushes = s.flushes + 1; drained = s.drained + d })
          | Error e -> failed flush_errors e
        end;
        (if compact_every > 0 && n mod compact_every = compact_every - 1 && !dirty > 0 then begin
           dirty := 0;
           match compact t with
           | Ok () ->
             incr compacted;
             bump (fun s -> { s with compacts = s.compacts + 1 })
           | Error e -> failed compact_errors e
         end);
        (if reclaim_every > 0 && n mod reclaim_every = reclaim_every - 1 && !compacted > 0
         then begin
           compacted := 0;
           match reclaim t with
           | Ok _ -> bump (fun s -> { s with reclaims = s.reclaims + 1 })
           | Error e -> failed reclaim_errors e
         end);
        bump (fun s -> { s with steps = s.steps + 1 })
      in
      { w = Conc.Domains.Worker.start step; stats }

    let stop worker =
      let (_ : int) = Conc.Domains.Worker.stop worker.w in
      !(worker.stats)
  end

  (* The staged overlay on a sorted base listing of elements keyed by
     [key]: staged values (made elements by [staged]) shadow base elements
     of the same key, staged tombstones hide them. Only staged keys inside
     [lo, hi] apply. Each key lives in exactly one shard table, so the
     staged keys are distinct. *)
  let overlay tables ~lo ~hi ~key ~staged base =
    let overrides =
      Array.fold_left
        (fun acc tbl ->
          Util.Tbl.fold_sorted
            (fun k v acc -> if Util.Key_range.mem ~lo ~hi k then (k, v) :: acc else acc)
            tbl acc)
        [] tables
    in
    let overridden = Hashtbl.create 16 in
    List.iter (fun (k, _) -> Hashtbl.replace overridden k ()) overrides;
    let kept = List.filter (fun x -> not (Hashtbl.mem overridden (key x))) base in
    let adds = List.filter_map (fun (k, v) -> Option.map (staged k) v) overrides in
    List.sort (fun a b -> String.compare (key a) (key b)) (adds @ kept)

  (* Staged overlay on top of the base listing. All shard read locks are
     held (ascending) around the stack read, so the overlay and the base
     snapshot are mutually consistent. *)
  let list t =
    Conc.Shard_table.with_all_read t.staging (fun tables ->
        Conc.Rwlock.with_read t.stack (fun () ->
            Result.map
              (overlay tables ~lo:None ~hi:None ~key:Fun.id ~staged:(fun k _ -> k))
              (Default.list t.base)))

  (* Materialized range scan with the staged overlay applied. Same lock
     shape as [list] — all shard read locks (ascending) around the stack
     read lock, the established shard < stack order — so the overlay and
     the base scan are mutually consistent and the result equals what
     [Store.Default.scan] would yield after a drain. *)
  let scan t ?lo ?hi () =
    Obs.Counter.incr t.m.m_scans;
    Tracecheck.Trace.Recorder.bracket t.trace ~src:"shared" (Tracecheck.Trace.Scan { lo; hi })
      ~outcome:(function
        | Ok items -> Tracecheck.Trace.Scanned { items; complete = true }
        | Error _ -> Tracecheck.Trace.Unavailable)
    @@ fun () ->
    Conc.Shard_table.with_all_read t.staging (fun tables ->
        Conc.Rwlock.with_read t.stack (fun () ->
            Result.map
              (overlay tables ~lo ~hi ~key:fst ~staged:(fun k v -> (k, v)))
              (Default.scan t.base ?lo ?hi ())))
end
