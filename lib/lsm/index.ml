open Util
module Smap = Map.Make (String)

type error =
  | Chunk of Chunk.Chunk_store.error
  | Roll of Logroll.error
  | Corrupt of Codec.error

let pp_error fmt = function
  | Chunk e -> Chunk.Chunk_store.pp_error fmt e
  | Roll e -> Logroll.pp_error fmt e
  | Corrupt e -> Codec.pp_error fmt e

let error_class = function
  | Chunk e -> Chunk.Chunk_store.error_class e
  | Roll e -> Logroll.error_class e
  | Corrupt _ -> `Fatal

let error_is_no_space = function
  | Chunk Chunk.Chunk_store.No_space -> true
  (* A metadata record outgrowing its extent is also resource pressure:
     compaction shrinks the run list and with it the record. *)
  | Roll (Logroll.Record_too_large _) -> true
  | Chunk _ | Roll _ | Corrupt _ -> false

type run_ref = {
  run_id : int;
  mutable loc : Chunk.Locator.t;
  dep : Dep.t;  (** dependency covering this run and its metadata record *)
  min_key : string;  (** smallest key in the run (from metadata, no load) *)
  max_key : string;  (** largest key in the run *)
}

type metrics = {
  m_puts : Obs.Counter.t;
  m_deletes : Obs.Counter.t;
  m_get_memtable : Obs.Counter.t;
  m_get_run : Obs.Counter.t;
  m_runs_written : Obs.Counter.t;
  m_run_bytes : Obs.Counter.t;
  m_flushes : Obs.Counter.t;
  m_compacts : Obs.Counter.t;
  m_compact_partial : Obs.Counter.t;
  m_scans : Obs.Counter.t;
  m_recovers : Obs.Counter.t;
  m_memtable_size : Obs.Gauge.t;
  m_run_count : Obs.Gauge.t;
  m_level_count : Obs.Gauge.t;
}

type t = {
  chunks : Chunk.Chunk_store.t;
  roll : Logroll.t;
  obs : Obs.t;
  m : metrics;
  mutable memtable : (Entry.t * Dep.t) Smap.t;
  mutable memtable_count : int;  (** [Smap.cardinal memtable], tracked O(1) *)
  mutable levels : run_ref list array;
      (** [levels.(0)] newest first, ranges may overlap; [levels.(i >= 1)]
          sorted by [min_key] with pairwise-disjoint ranges (the per-level
          invariant checked by {!level_invariants}) *)
  mutable l0_trigger : int;
      (** L0 run count that triggers a levelled step; [0] = monolithic
          mode (the pre-levelling behaviour: {!compact} merges everything) *)
  mutable level_ratio : int;  (** level [i >= 1] holds [level_ratio ^ i] runs *)
  mutable next_run_id : int;
  mutable flush_promise : Dep.Promise.promise;
  run_contents : (int, Run.t) Hashtbl.t;
      (** decoded runs, memoized while a level holds them: retiring a run
          from the levels forgets it (checked by {!level_invariants}) *)
  run_lock : Conc.Rwlock.t;
      (** guards [run_contents]: [load_run] memoizes decoded runs on the
          read path, so concurrent readers under a shard {e read} lock
          both reach this table — the one read-path mutation the shared
          store cannot exclude structurally. A validated [Conc.Rwlock]
          (reads share, memoization writes exclude); its own class
          ("lsm_run") is a leaf in the static lock-order graph *)
  mutable reset_seen : bool;
  max_run_payload : int;
}

let create ?(max_run_payload = 16 * 1024) ?obs chunks ~metadata_extents =
  let sched = Chunk.Chunk_store.sched chunks in
  let obs = match obs with Some o -> o | None -> Chunk.Chunk_store.obs chunks in
  {
    chunks;
    roll = Logroll.create ~obs sched ~extents:metadata_extents ~name:"lsm-metadata";
    obs;
    m =
      {
        m_puts = Obs.counter obs "index.put";
        m_deletes = Obs.counter obs "index.delete";
        m_get_memtable = Obs.counter ~coverage:true obs "index.get.memtable";
        m_get_run = Obs.counter ~coverage:true obs "index.get.run";
        m_runs_written = Obs.counter ~coverage:true obs "index.run_written";
        m_run_bytes = Obs.counter obs "index.run_bytes";
        m_flushes = Obs.counter obs "index.flush";
        m_compacts = Obs.counter ~coverage:true obs "index.compact";
        m_compact_partial = Obs.counter ~coverage:true obs "index.compact.partial";
        m_scans = Obs.counter ~coverage:true obs "index.scan";
        m_recovers = Obs.counter obs "index.recover";
        m_memtable_size = Obs.gauge obs "index.memtable_size";
        m_run_count = Obs.gauge obs "index.run_count";
        m_level_count = Obs.gauge obs "index.level_count";
      };
    memtable = Smap.empty;
    memtable_count = 0;
    levels = Array.make 1 [];
    l0_trigger = 4;
    level_ratio = 4;
    next_run_id = 1;
    flush_promise = Dep.Promise.create ();
    run_contents = Hashtbl.create 16;
    run_lock = Conc.Rwlock.create ();
    reset_seen = false;
    max_run_payload;
  }

let configure_levels t ~l0_trigger ~level_ratio =
  t.l0_trigger <- max 0 l0_trigger;
  t.level_ratio <- max 2 level_ratio

let obs t = t.obs
let memtable_size t = t.memtable_count
let run_count t = Array.fold_left (fun n runs -> n + List.length runs) 0 t.levels
let levelled t = t.l0_trigger > 0

(* Newest entries first: L0 newest-first, then each deeper (older) level.
   Within a level >= 1 the runs are range-disjoint, so their relative
   order never affects shadowing. *)
let all_runs t = List.concat (Array.to_list t.levels)

let level_runs t =
  let counts = Array.to_list (Array.map List.length t.levels) in
  let rec trim = function 0 :: rest -> trim rest | l -> List.rev l in
  trim (List.rev counts)

let level_count t = List.length (level_runs t)

let sync_gauges t =
  Obs.Gauge.set_int t.m.m_memtable_size (memtable_size t);
  Obs.Gauge.set_int t.m.m_run_count (run_count t);
  Obs.Gauge.set_int t.m.m_level_count (level_count t)

let note_extent_reset t = t.reset_seen <- true
let run_locators t = List.map (fun r -> (r.run_id, r.loc)) (all_runs t)

let stage t key entry dep =
  if not (Smap.mem key t.memtable) then t.memtable_count <- t.memtable_count + 1;
  t.memtable <- Smap.add key (entry, dep) t.memtable;
  Obs.Gauge.set_int t.m.m_memtable_size t.memtable_count;
  Dep.and_ dep (Dep.Promise.dep t.flush_promise)

let put t ~key ~locators ~value_dep =
  Obs.Counter.incr t.m.m_puts;
  stage t key (Entry.Put locators) value_dep

let delete t ~key =
  Obs.Counter.incr t.m.m_deletes;
  stage t key Entry.Tombstone Dep.trivial

let ( let* ) = Result.bind

let memo_run t run_id f =
  Conc.Rwlock.with_write t.run_lock (fun () ->
      match Hashtbl.find_opt t.run_contents run_id with Some run -> run | None -> f ())

(* Read and decode the run at [loc], memoised under [run_id]. Decoding
   runs outside the mutex (chunk IO can be slow); racing decoders of the
   same run produce identical values, and the first memoised is kept. *)
let fetch_run t ~run_id loc =
  let* chunk = Result.map_error (fun e -> Chunk e) (Chunk.Chunk_store.get t.chunks loc) in
  let* run = Result.map_error (fun e -> Corrupt e) (Run.decode chunk.Chunk.Chunk_format.payload) in
  Ok (memo_run t run_id (fun () -> Hashtbl.replace t.run_contents run_id run; run))

let load_run t (r : run_ref) =
  let memo = Conc.Rwlock.with_read t.run_lock (fun () -> Hashtbl.find_opt t.run_contents r.run_id) in
  match memo with Some run -> Ok run | None -> fetch_run t ~run_id:r.run_id r.loc

(* Load [refs] in order, stopping at the first failure. *)
let load_runs t refs =
  List.fold_left
    (fun acc r ->
      let* runs = acc in
      let* run = load_run t r in
      Ok (run :: runs))
    (Ok []) refs
  |> Result.map List.rev

(* Retired runs leave the memo table with the levels: nothing reads them
   again, and keeping them would hold every run ever written. *)
let forget_runs t runs =
  Conc.Rwlock.with_write t.run_lock (fun () ->
      List.iter (fun r -> Hashtbl.remove t.run_contents r.run_id) runs)

(* Memoized run ids that no level holds, sorted; call under [run_lock]. *)
let unheld_memo_ids t =
  let held = List.map (fun r -> r.run_id) (all_runs t) in
  List.filter (fun id -> not (List.mem id held)) (Tbl.sorted_keys t.run_contents)

(* The first neighbouring runs that overlap or are out of order: none in
   a well-formed level >= 1. *)
let rec unordered = function
  | a :: (b :: _ as rest) ->
    if String.compare a.max_key b.min_key >= 0 then Some (a, b) else unordered rest
  | [] | [ _ ] -> None

let run_covers r key = String.compare r.min_key key <= 0 && String.compare key r.max_key <= 0

let find_entry t key =
  match Smap.find_opt key t.memtable with
  | Some (entry, _) ->
    Obs.Counter.incr t.m.m_get_memtable;
    Ok (Some entry)
  | None ->
    (* Only runs whose recorded range covers the key are loaded: all of
       L0's covering runs newest-first, then at most one run per deeper
       level (ranges there are disjoint). *)
    let rec search = function
      | [] -> Ok None
      | r :: rest when not (run_covers r key) -> search rest
      | r :: rest -> (
        let* run = load_run t r in
        match Run.find run key with
        | Some entry ->
          Obs.Counter.incr t.m.m_get_run;
          Ok (Some entry)
        | None -> search rest)
    in
    search (all_runs t)

let get t ~key =
  let* entry = find_entry t key in
  match entry with
  | Some (Entry.Put locs) -> Ok (Some locs)
  | Some Entry.Tombstone | None -> Ok None

(* {2 Range scans}

   A scan is a k-way merge over the sources in priority order: the
   memtable's in-range bindings (newest), then the in-range slice of every
   run overlapping [lo, hi] in [all_runs] order (L0 newest first, then
   deeper levels). A binary heap orders the sources by (next key,
   priority), so the first entry taken for a key is its newest and shadows
   the rest, at O(log sources) per entry however many runs a reclamation
   drain leaves in level 0. *)

type source = { entries : (string * Entry.t) array; mutable pos : int; prio : int }

let head s = fst s.entries.(s.pos)

(* [a] yields before [b]: a smaller next key, or the same key from a newer
   source. *)
let before a b =
  match String.compare (head a) (head b) with 0 -> a.prio < b.prio | c -> c < 0

let merge sources =
  let heap =
    List.mapi (fun prio entries -> { entries; pos = 0; prio }) sources
    |> List.filter (fun s -> Array.length s.entries > 0)
    |> Array.of_list
  in
  let n = ref (Array.length heap) in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !n then begin
      let c = if l + 1 < !n && before heap.(l + 1) heap.(l) then l + 1 else l in
      if before heap.(c) heap.(i) then begin
        let s = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- s;
        sift c
      end
    end
  in
  for i = (!n / 2) - 1 downto 0 do
    sift i
  done;
  (* Take the least entry and advance its source, which leaves the heap
     once drained. *)
  let take () =
    let s = heap.(0) in
    let entry = s.entries.(s.pos) in
    s.pos <- s.pos + 1;
    if s.pos = Array.length s.entries then begin
      decr n;
      heap.(0) <- heap.(!n)
    end;
    sift 0;
    entry
  in
  let rec go last acc =
    if !n = 0 then List.rev acc
    else begin
      let key, entry = take () in
      let acc =
        match (last, entry) with
        | Some l, _ when String.equal l key -> acc
        | _, Entry.Put locs -> (key, locs) :: acc
        | _, Entry.Tombstone -> acc
      in
      go (Some key) acc
    end
  in
  go None []

let scan t ~lo ~hi =
  Obs.Counter.incr t.m.m_scans;
  let mem =
    Smap.fold
      (fun k (e, _) acc -> if Key_range.mem ~lo ~hi k then (k, e) :: acc else acc)
      t.memtable []
    |> List.rev |> Array.of_list
  in
  let overlapping r =
    (match lo with None -> true | Some l -> String.compare r.max_key l >= 0)
    && match hi with None -> true | Some h -> String.compare r.min_key h <= 0
  in
  let* runs = load_runs t (List.filter overlapping (all_runs t)) in
  Ok (merge (mem :: List.map (fun run -> Run.slice run ~lo ~hi) runs))

(* {2 Metadata} *)

let encode_metadata t =
  let nlevels =
    let rec go i = if i = 0 then 0 else if t.levels.(i - 1) <> [] then i else go (i - 1) in
    go (Array.length t.levels)
  in
  let w = Codec.Writer.create ~capacity:(16 + (run_count t * 16)) () in
  Codec.Writer.uint w t.next_run_id;
  Codec.Writer.list ~count:Codec.Writer.uint w
    (fun w runs ->
      Codec.Writer.list ~count:Codec.Writer.uint w
        (fun w r ->
          Codec.Writer.uint w r.run_id;
          Chunk.Locator.encode w r.loc)
        runs)
    (Array.to_list (Array.sub t.levels 0 nlevels));
  Codec.Writer.contents w

(* Ranges are deliberately not persisted — a record stays O(1) bytes per
   run, so it keeps fitting its metadata extent as keys grow. Decoding
   yields per-level [(run_id, locator)] skeletons; {!recover} reloads each
   run's contents to recompute its range (the record's input dependency
   covered the run chunks, so a record that survived implies they did),
   then re-validates the per-level discipline before installing. *)
let decode_metadata payload =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string payload in
  let* next_run_id = Codec.Reader.uint r in
  let run r =
    let* run_id = Codec.Reader.uint r in
    let+ loc = Chunk.Locator.decode r in
    (run_id, loc)
  in
  let* levels =
    Codec.Reader.list ~count:Codec.Reader.uint ~max:64 ~what:"level" r (fun r ->
        Codec.Reader.list ~count:Codec.Reader.uint ~max:(1 lsl 16) ~what:"run" r run)
  in
  let* () = Codec.Reader.expect_end r in
  let ids = List.concat_map (List.map fst) levels in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error (Codec.Invalid "duplicate run id")
  else Ok (next_run_id, levels)

let append_metadata t ~input =
  let payload = encode_metadata t in
  Result.map_error
    (fun e -> Roll e)
    (Logroll.append t.roll ~payload:(fun ~opens:_ -> payload) ~input)

(* Split key-sorted pairs into batches whose serialized run stays within
   the payload budget (at least one pair per batch). Each batch covers a
   contiguous key interval, so a multi-batch compaction output lands in a
   level >= 1 as range-disjoint runs by construction. *)
let batch_pairs t pairs =
  let rec go current current_size batches = function
    | [] -> List.rev (if current = [] then batches else List.rev current :: batches)
    | ((k, e) as pair) :: rest ->
      (* [Run.encode] writes each pair as an [lstring] key and the entry. *)
      let size = 4 + String.length k + Entry.encoded_size e in
      if current <> [] && current_size + size > t.max_run_payload then
        go [ pair ] size (List.rev current :: batches) rest
      else go (pair :: current) (current_size + size) batches rest
  in
  go [] 4 [] pairs

(* Write one batch of pairs as a fresh run whose input dependency covers
   [input]. The caller installs the returned [run_ref] into a level. *)
let write_run t ~input pairs =
  Obs.Counter.incr t.m.m_runs_written;
  let run = Run.of_pairs pairs in
  let payload = Run.encode run in
  Obs.Counter.add t.m.m_run_bytes (String.length payload);
  let run_id = t.next_run_id in
  t.next_run_id <- run_id + 1;
  let* loc, run_dep =
    Result.map_error (fun e -> Chunk e)
      (Chunk.Chunk_store.put ~input t.chunks
         ~owner:(Chunk.Chunk_format.Index_run run_id) ~payload)
  in
  let min_key = match Run.min_key run with Some k -> k | None -> "" in
  let max_key = match Run.max_key run with Some k -> k | None -> "" in
  ignore (memo_run t run_id (fun () -> Hashtbl.replace t.run_contents run_id run; run));
  Ok ({ run_id; loc; dep = run_dep; min_key; max_key }, run_dep)

(* Write every batch, collecting the new refs; on failure the caller
   restores its saved levels (the partially written chunks become garbage
   for reclamation, exactly like a torn pre-levelling compaction) and the
   runs already written, never installed, leave the memo table. *)
let write_batches t ~input batches =
  let rec go refs dep = function
    | [] -> Ok (refs, dep)
    | batch :: rest -> (
      match write_run t ~input batch with
      | Ok (rref, run_dep) -> go (rref :: refs) (Dep.and_ dep run_dep) rest
      | Error _ as e ->
        forget_runs t refs;
        e)
  in
  go [] Dep.trivial batches

let flush t ~for_shutdown =
  if Smap.is_empty t.memtable then Ok Dep.trivial
  else begin
    let pairs = Smap.bindings t.memtable in
    let value_deps = Dep.all (List.map (fun (_, (_, d)) -> d) pairs) in
    let batches = batch_pairs t (List.map (fun (k, (e, _)) -> (k, e)) pairs) in
    let* refs, run_dep = write_batches t ~input:value_deps batches in
    List.iter (fun r -> t.levels.(0) <- r :: t.levels.(0)) (List.rev refs);
    (* Fault #3: metadata was not flushed correctly during shutdown if an
       extent was reset. *)
    let skip_metadata =
      for_shutdown && t.reset_seen && Faults.enabled Faults.F3_shutdown_skips_metadata
    in
    let* meta_dep =
      if skip_metadata then begin
        Faults.record_fired Faults.F3_shutdown_skips_metadata;
        Ok Dep.trivial
      end
      else append_metadata t ~input:run_dep
    in
    let dep = Dep.and_ run_dep meta_dep in
    Dep.Promise.bind t.flush_promise dep;
    t.flush_promise <- Dep.Promise.create ();
    t.memtable <- Smap.empty;
    t.memtable_count <- 0;
    t.reset_seen <- false;
    Obs.Counter.incr t.m.m_flushes;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"index" "flush" [ ("pairs", string_of_int (List.length pairs)) ];
    sync_gauges t;
    Ok dep
  end

(* {2 Compaction} *)

let ensure_level t i =
  if i >= Array.length t.levels then begin
    let bigger = Array.make (i + 1) [] in
    Array.blit t.levels 0 bigger 0 (Array.length t.levels);
    t.levels <- bigger
  end

(* Count capacity of level [i]: L0 holds [l0_trigger - 1] runs before a
   step fires; level [i >= 1] holds [level_ratio ^ i]. Saturating. *)
let capacity t i =
  if i = 0 then max 1 t.l0_trigger
  else begin
    let rec go acc j =
      if j = 0 then acc
      else if acc > max_int / t.level_ratio then max_int
      else go (acc * t.level_ratio) (j - 1)
    in
    go 1 i
  end

let overfull t i =
  let n = List.length t.levels.(i) in
  if i = 0 then t.l0_trigger > 0 && n >= t.l0_trigger else n > capacity t i

let first_overfull t =
  let rec go i = if i >= Array.length t.levels then None else if overfull t i then Some i else go (i + 1) in
  go 0

let compaction_due t = levelled t && first_overfull t <> None

let deepest_populated t =
  let rec go i = if i = 0 then None else if t.levels.(i - 1) <> [] then Some (i - 1) else go (i - 1) in
  go (Array.length t.levels)

(* One levelled step: merge a victim run of [level] into the overlapping
   runs of [level + 1]. Tombstones are dropped only when the target is the
   deepest populated level — anywhere else an older value could survive in
   a deeper run and be resurrected (the Run.merge contract). *)
let compact_step t ~level =
  let victim, remaining_src =
    if level = 0 then
      (* L0 runs overlap; evict the oldest so the newer ones keep
         shadowing it through the level order. *)
      match List.rev t.levels.(0) with
      | v :: rest_rev -> (v, List.rev rest_rev)
      | [] -> invalid_arg "compact_step: empty level"
    else
      match t.levels.(level) with
      | v :: rest -> (v, rest)
      | [] -> invalid_arg "compact_step: empty level"
  in
  let target = level + 1 in
  ensure_level t target;
  let overlapping, keep_target =
    List.partition
      (fun r ->
        not
          (String.compare r.max_key victim.min_key < 0
          || String.compare r.min_key victim.max_key > 0))
      t.levels.(target)
  in
  let drop_tombstones =
    match deepest_populated t with Some d -> d <= target | None -> true
  in
  let* contents = load_runs t (victim :: overlapping) in
  let merged = Run.merge ~drop_tombstones contents in
  let source_deps = Dep.all (List.map (fun r -> r.dep) (victim :: overlapping)) in
  Obs.Counter.incr t.m.m_compact_partial;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"index" "compact.step"
      [
        ("level", string_of_int level);
        ("victim", string_of_int victim.run_id);
        ("overlap", string_of_int (List.length overlapping));
        ("drop_tombstones", string_of_bool drop_tombstones);
      ];
  if Run.is_empty merged then begin
    t.levels.(level) <- remaining_src;
    t.levels.(target) <- keep_target;
    forget_runs t (victim :: overlapping);
    sync_gauges t;
    append_metadata t ~input:source_deps
  end
  else begin
    (* Transactional: only commit the new level contents once every batch
       chunk is written; a mid-step failure (extent exhaustion) must not
       lose entries. *)
    let saved_src = t.levels.(level) and saved_target = t.levels.(target) in
    t.levels.(level) <- remaining_src;
    t.levels.(target) <- keep_target;
    let batches = batch_pairs t (Run.to_list merged) in
    match write_batches t ~input:source_deps batches with
    | Error e ->
      t.levels.(level) <- saved_src;
      t.levels.(target) <- saved_target;
      sync_gauges t;
      Error e
    | Ok (refs, run_dep) ->
      t.levels.(target) <-
        List.sort (fun a b -> String.compare a.min_key b.min_key) (refs @ keep_target);
      forget_runs t (victim :: overlapping);
      let* meta_dep = append_metadata t ~input:run_dep in
      sync_gauges t;
      Ok (Dep.and_ run_dep meta_dep)
  end

(* Monolithic compaction (l0_trigger = 0): merge every run into one
   generation, dropping tombstones — the pre-levelling behaviour, kept as
   the baseline arm of the write-amplification experiment (E15). *)
let compact_major t =
  match all_runs t with
  | [] | [ _ ] -> Ok Dep.trivial
  | runs ->
    let* contents = load_runs t runs in
    let merged = Run.merge ~drop_tombstones:true contents in
    let source_deps = Dep.all (List.map (fun r -> r.dep) runs) in
    if Run.is_empty merged then begin
      t.levels <- Array.make 1 [];
      forget_runs t runs;
      sync_gauges t;
      append_metadata t ~input:source_deps
    end
    else begin
      let saved = t.levels in
      t.levels <- Array.make 1 [];
      let batches = batch_pairs t (Run.to_list merged) in
      match write_batches t ~input:source_deps batches with
      | Error e ->
        t.levels <- saved;
        sync_gauges t;
        Error e
      | Ok (refs, run_dep) ->
        t.levels.(0) <- List.rev refs;
        forget_runs t runs;
        let* meta_dep = append_metadata t ~input:run_dep in
        sync_gauges t;
        Ok (Dep.and_ run_dep meta_dep)
    end

let lowest_populated t =
  let rec go i =
    if i >= Array.length t.levels then None else if t.levels.(i) <> [] then Some i else go (i + 1)
  in
  go 0

let compact t =
  if run_count t <= 1 then Ok Dep.trivial
  else begin
    Obs.Counter.incr t.m.m_compacts;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"index" "compact"
        [ ("runs", string_of_int (run_count t)); ("levels", string_of_int (level_count t)) ];
    if not (levelled t) then compact_major t
    else begin
      (* Drain every trigger; bounded so a pathological configuration
         cannot loop (each step strictly shrinks the overfull prefix). *)
      let rec drain dep steps =
        if steps >= 64 then Ok dep
        else
          match first_overfull t with
          | Some level ->
            let* d = compact_step t ~level in
            drain (Dep.and_ dep d) (steps + 1)
          | None -> Ok dep
      in
      if compaction_due t then drain Dep.trivial 0
      else begin
        (* Quiescent explicit compact: push one run down so repeated calls
           converge to a single fully-compacted level (the GC ladder and
           harness Compact ops rely on convergence to reclaim space). *)
        match (lowest_populated t, deepest_populated t) with
        | Some lo, Some hi when lo < hi -> compact_step t ~level:lo
        | Some 0, Some 0 -> compact_step t ~level:0
        | _ -> Ok Dep.trivial
      end
    end
  end

(* {2 Invariants}

   The composed per-level discipline, checkable at any point without IO:
   every level >= 1 is sorted by [min_key] with pairwise-disjoint ranges,
   ids are unique and below [next_run_id], any memoized run content
   matches its recorded range, and only runs some level holds are
   memoized. *)
let level_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let all = all_runs t in
  let ids = List.map (fun r -> r.run_id) all in
  if List.length (List.sort_uniq compare ids) <> List.length ids then err "duplicate run id"
  else if List.exists (fun id -> id >= t.next_run_id) ids then err "run id >= next_run_id"
  else if List.exists (fun r -> String.compare r.min_key r.max_key > 0) all then
    err "run with min_key > max_key"
  else begin
    let rec check_level i =
      if i >= Array.length t.levels then Ok ()
      else
        match unordered t.levels.(i) with
        | Some (a, b) -> err "level %d: runs %d and %d overlap or are unordered" i a.run_id b.run_id
        | None -> check_level (i + 1)
    in
    let* () = check_level 1 in
    Conc.Rwlock.with_read t.run_lock (fun () ->
        let* () =
          List.fold_left
            (fun acc r ->
              let* () = acc in
              match Hashtbl.find_opt t.run_contents r.run_id with
              | None -> Ok ()
              | Some run -> (
                match (Run.min_key run, Run.max_key run) with
                | Some mn, Some mx when String.equal mn r.min_key && String.equal mx r.max_key ->
                  Ok ()
                | _ -> err "run %d: memoized content range differs from metadata" r.run_id))
            (Ok ()) all
        in
        match unheld_memo_ids t with
        | id :: _ -> err "run %d: memoized but no level holds it" id
        | [] -> Ok ())
  end

let update_locator t ~key ~old_loc ~new_loc ~new_dep =
  match Smap.find_opt key t.memtable with
  | Some (Entry.Put locs, dep) when List.exists (Chunk.Locator.equal old_loc) locs ->
    let locs =
      List.map (fun l -> if Chunk.Locator.equal l old_loc then new_loc else l) locs
    in
    ignore (stage t key (Entry.Put locs) (Dep.and_ dep new_dep));
    Dep.Promise.dep t.flush_promise
  | Some _ -> Dep.trivial
  | None -> (
    (* The entry lives in a run: shadow it through the memtable; the old
       run keeps the stale locator but the memtable entry wins, and the
       reset waits on this entry's flush. *)
    let rec search = function
      | [] -> Dep.trivial
      | r :: rest when not (run_covers r key) -> search rest
      | r :: rest -> (
        match load_run t r with
        | Error _ -> Dep.trivial
        | Ok run -> (
          match Run.find run key with
          | Some (Entry.Put locs) when List.exists (Chunk.Locator.equal old_loc) locs ->
            let locs =
              List.map (fun l -> if Chunk.Locator.equal l old_loc then new_loc else l) locs
            in
            ignore (stage t key (Entry.Put locs) new_dep);
            Dep.Promise.dep t.flush_promise
          | Some _ -> Dep.trivial
          | None -> search rest))
    in
    search (all_runs t))

let basis_dep t =
  let runs = Dep.all (List.map (fun r -> r.dep) (all_runs t)) in
  let meta = Logroll.last_record_dep t.roll in
  let memtable =
    if Smap.is_empty t.memtable then Dep.trivial else Dep.Promise.dep t.flush_promise
  in
  Dep.and_ runs (Dep.and_ meta memtable)

let relocate_run t ~run_id ~new_loc ~new_dep =
  match List.find_opt (fun r -> r.run_id = run_id) (all_runs t) with
  | None -> Ok Dep.trivial
  | Some r ->
    r.loc <- new_loc;
    append_metadata t ~input:new_dep

let recover t =
  Obs.Counter.incr t.m.m_recovers;
  t.memtable <- Smap.empty;
  t.memtable_count <- 0;
  t.flush_promise <- Dep.Promise.create ();
  Conc.Rwlock.with_write t.run_lock (fun () -> Hashtbl.reset t.run_contents);
  t.reset_seen <- false;
  let result =
    (* Every metadata record is whole, so the chain's last one is the
       tree. *)
    match List.rev (Logroll.recover t.roll) with
    | [] ->
      t.levels <- Array.make 1 [];
      t.next_run_id <- 1;
      Ok ()
    | (_gen, payload) :: _ ->
      let* next_run_id, skeleton =
        Result.map_error (fun e -> Corrupt e) (decode_metadata payload)
      in
      (* Reload every run to recompute its range; the runs land memoized,
         so the recovered read path starts warm. *)
      let load_level lvl =
        List.fold_left
          (fun acc (run_id, loc) ->
            let* acc = acc in
            let* run = fetch_run t ~run_id loc in
            match (Run.min_key run, Run.max_key run) with
            | Some min_key, Some max_key ->
              Ok ({ run_id; loc; dep = Dep.trivial; min_key; max_key } :: acc)
            | _ -> Error (Corrupt (Codec.Invalid "empty run in metadata")))
          (Ok []) lvl
        |> Result.map List.rev
      in
      let* levels =
        List.fold_left
          (fun acc lvl ->
            let* acc = acc in
            let* runs = load_level lvl in
            Ok (runs :: acc))
          (Ok []) skeleton
        |> Result.map List.rev
      in
      (* The overlap-rejection gate: metadata describing an ill-formed
         tree (overlapping or unordered ranges in a level >= 1) is
         [Corrupt], never silently installed. *)
      let deeper = match levels with [] -> [] | _ :: deeper -> deeper in
      let* () =
        if List.exists (fun runs -> Option.is_some (unordered runs)) deeper then
          Error (Corrupt (Codec.Invalid "level runs overlap or are unordered"))
        else Ok ()
      in
      t.next_run_id <- next_run_id;
      t.levels <- (if levels = [] then Array.make 1 [] else Array.of_list levels);
      Ok ()
  in
  (* A failed recovery keeps the old levels; the runs it memoized that they
     do not hold go. *)
  if Result.is_error result then
    Conc.Rwlock.with_write t.run_lock (fun () ->
        List.iter (Hashtbl.remove t.run_contents) (unheld_memo_ids t));
  sync_gauges t;
  result
