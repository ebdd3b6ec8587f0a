(* A resident page: a node of the LRU list, keyed by [extent *
   pages_per_extent + page]. *)
type node = {
  key : int;
  mutable data : string;
  mutable older : node;
  mutable newer : node;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type metrics = {
  m_hits : Obs.Counter.t;
  m_misses : Obs.Counter.t;
  m_evictions : Obs.Counter.t;
  m_fills : Obs.Counter.t;
  m_resident : Obs.Gauge.t;
}

type t = {
  sched : Io_sched.t;
  capacity : int;
  write_allocate : bool;
  page_size : int;
  pages_per_extent : int;
  pages : node Itbl.t;
  lru : node;
      (* Sentinel of the circular LRU list over the resident pages:
         [lru.newer] is the least recently used page (the victim),
         [lru.older] the most recently used. *)
  audit : Conc.Cache_sm.audit;
  lock : Conc.Rwlock.t;
  obs : Obs.t;
  m : metrics;
}

let create ?(capacity_pages = 64) ?(write_allocate = false) ?obs sched =
  let obs = match obs with Some o -> o | None -> Io_sched.obs sched in
  let page_size = Io_sched.page_size sched in
  let rec lru = { key = -1; data = ""; older = lru; newer = lru } in
  {
    sched;
    capacity = max 1 capacity_pages;
    write_allocate;
    page_size;
    pages_per_extent = (Io_sched.extent_size sched + page_size - 1) / page_size;
    pages = Itbl.create 128;
    lru;
    audit = Conc.Cache_sm.auditor ();
    lock = Conc.Rwlock.create ();
    obs;
    m =
      {
        m_hits = Obs.counter ~coverage:true obs "cache.hit";
        m_misses = Obs.counter ~coverage:true obs "cache.miss";
        m_evictions = Obs.counter ~coverage:true obs "cache.eviction";
        m_fills = Obs.counter ~coverage:true obs "cache.fill";
        m_resident = Obs.gauge obs "cache.resident_pages";
      };
  }

let write_allocate t = t.write_allocate
let obs t = t.obs
let key t ~extent ~page = (extent * t.pages_per_extent) + page

(* Every entry mutation is a SimpleCacheSM edge, audited against
   Cache_sm.legal. The real cache only visits the Empty/Reading/Clean
   subset (it is a read cache: writes invalidate instead of dirtying), so
   Dirty/Writeback never appear here — the Conc_shared model exercises
   those. A page is Clean exactly when it is in [pages], Reading only
   inside [fetch_page], and Empty otherwise; record under [t.lock] in
   write mode. *)
let transition t key old_s new_s =
  Conc.Cache_sm.record t.audit ~page:(key mod t.pages_per_extent) ~old_s ~new_s

let sync_resident t = Obs.Gauge.set_int t.m.m_resident (Itbl.length t.pages)

let unlink node =
  node.older.newer <- node.newer;
  node.newer.older <- node.older

let link_newest t node =
  node.older <- t.lru.older;
  node.newer <- t.lru;
  t.lru.older.newer <- node;
  t.lru.older <- node

let touch t node =
  unlink node;
  link_newest t node

(* A page leaving [pages] leaves Clean. *)
let remove_page t node =
  Itbl.remove t.pages node.key;
  unlink node;
  transition t node.key Conc.Cache_sm.Clean Conc.Cache_sm.Empty

(* Make [data] the most recently used page [key], which is not resident. *)
let add_page t key data =
  let node = { key; data; older = t.lru; newer = t.lru } in
  Itbl.replace t.pages key node;
  link_newest t node

let evict_if_needed t =
  let victim = t.lru.newer in
  if Itbl.length t.pages > t.capacity && victim != t.lru then begin
    remove_page t victim;
    Obs.Counter.incr t.m.m_evictions;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"cache" "evict"
        [
          ("extent", string_of_int (victim.key / t.pages_per_extent));
          ("page", string_of_int (victim.key mod t.pages_per_extent));
        ]
  end

(* Fetch one page's currently-readable prefix through the scheduler. *)
let fetch_page t ~extent ~page =
  let ps = t.page_size in
  let start = page * ps in
  let soft = Io_sched.soft_ptr t.sched ~extent in
  let len = min ps (soft - start) in
  if len <= 0 then
    Error (Io_sched.Io (Disk.Out_of_bounds (Printf.sprintf "page %d beyond soft pointer" page)))
  else begin
    let key = key t ~extent ~page in
    (* Claim the entry for the fetch window. A stale short copy (a partial
       page outgrown by appends) leaves the cache first, so a failed fetch
       leaves the page Empty and not resident. *)
    Option.iter (remove_page t) (Itbl.find_opt t.pages key);
    transition t key Conc.Cache_sm.Empty Conc.Cache_sm.Reading;
    match Io_sched.read t.sched ~extent ~off:start ~len with
    | Error _ as e ->
      transition t key Conc.Cache_sm.Reading Conc.Cache_sm.Empty;
      sync_resident t;
      e
    | Ok data ->
      (* Fault #17 (extra, section 8.3): the defect lives on the miss
         path — full pages fetched from disk get their last byte
         corrupted before entering the cache. *)
      let data =
        if Faults.enabled Faults.F17_cache_miss_path && String.length data = ps then begin
          Faults.record_fired Faults.F17_cache_miss_path;
          let b = Bytes.of_string data in
          Bytes.set b (ps - 1) (Char.chr (Char.code (Bytes.get b (ps - 1)) lxor 0xFF));
          Bytes.to_string b
        end
        else data
      in
      add_page t key data;
      transition t key Conc.Cache_sm.Reading Conc.Cache_sm.Clean;
      evict_if_needed t;
      sync_resident t;
      Ok data
  end

(* The page's content, at least [need] bytes of it: a hit moves the page
   to the most recently used end, anything else fetches it. *)
let page_data t ~extent ~page ~need =
  match Itbl.find t.pages (key t ~extent ~page) with
  | node when String.length node.data >= need ->
    Obs.Counter.incr t.m.m_hits;
    touch t node;
    Ok node.data
  | _ | (exception Not_found) ->
    Obs.Counter.incr t.m.m_misses;
    fetch_page t ~extent ~page

let read_locked t ~extent ~off ~len =
  if len < 0 || off < 0 then Error (Io_sched.Io (Disk.Out_of_bounds "negative offset or length"))
  else if off + len > Io_sched.soft_ptr t.sched ~extent then
    Error
      (Io_sched.Io
         (Disk.Out_of_bounds (Printf.sprintf "read [%d, %d) beyond soft pointer" off (off + len))))
  else if len = 0 then Ok ""
  else begin
    let ps = t.page_size in
    let last = (off + len - 1) / ps in
    let out = Bytes.create len in
    let rec go page =
      if page > last then Ok (Bytes.unsafe_to_string out)
      else begin
        let page_start = page * ps in
        match page_data t ~extent ~page ~need:(min ps (off + len - page_start)) with
        | Error _ as e -> e
        | Ok data ->
          let from = max off page_start - page_start in
          let until = min (off + len) (page_start + ps) - page_start in
          Bytes.blit_string data from out (page_start + from - off) (until - from);
          go (page + 1)
      end
    in
    go (off / ps)
  end

let fill_locked t ~extent ~off data =
  if t.write_allocate then begin
    Obs.Counter.incr t.m.m_fills;
    let ps = t.page_size in
    let len = String.length data in
    let first = off / ps in
    let last = (off + len - 1) / ps in
    for page = first to last do
      let page_start = page * ps in
      (* Only pages fully determined by this write (or starting at it) are
         inserted; partially stale pages would need a read-modify-write. *)
      if page_start >= off then begin
        let avail = off + len - page_start in
        let data = String.sub data (page_start - off) (min ps avail) in
        let key = key t ~extent ~page in
        (* A replaced page stays Clean (no self-loop edges); a fresh one
           fills without an IO window: Empty -> Clean. *)
        (match Itbl.find_opt t.pages key with
        | Some node ->
          node.data <- data;
          touch t node
        | None ->
          add_page t key data;
          transition t key Conc.Cache_sm.Empty Conc.Cache_sm.Clean);
        evict_if_needed t
      end
    done;
    sync_resident t
  end

let note_reset_locked t ~extent =
  (* Fault #2: cache was not correctly drained after resetting an extent. *)
  if Faults.enabled Faults.F2_cache_not_drained then Faults.record_fired Faults.F2_cache_not_drained
  else begin
    for page = t.pages_per_extent - 1 downto 0 do
      let key = key t ~extent ~page in
      Option.iter (remove_page t) (Itbl.find_opt t.pages key)
    done;
    sync_resident t
  end

(* The resident pages' keys, least recently used first. *)
let lru_keys t =
  let rec go node acc = if node == t.lru then acc else go node.older (node.key :: acc) in
  go t.lru.older []

let invalidate_all_locked t =
  List.iter
    (fun key -> transition t key Conc.Cache_sm.Clean Conc.Cache_sm.Empty)
    (List.sort Int.compare (lru_keys t));
  Itbl.reset t.pages;
  t.lru.older <- t.lru;
  t.lru.newer <- t.lru;
  sync_resident t

(* Public entry points take the cache's rwlock in write mode: even [read]
   mutates (LRU order, miss-path inserts, evictions), which is exactly
   why a reader-writer split inside the cache would be unsound — the
   paper's SC-for-race-free argument needs every table access inside a
   critical section. The lock nests inside the store's stack lock
   (global order: shard < stack < cache) and takes nothing itself, so it
   cannot participate in a cycle. *)
let read t ~extent ~off ~len = Conc.Rwlock.with_write t.lock (fun () -> read_locked t ~extent ~off ~len)
let fill t ~extent ~off data = Conc.Rwlock.with_write t.lock (fun () -> fill_locked t ~extent ~off data)

let note_reset t ~extent = Conc.Rwlock.with_write t.lock (fun () -> note_reset_locked t ~extent)
let invalidate_all t = Conc.Rwlock.with_write t.lock (fun () -> invalidate_all_locked t)

let resident t =
  Conc.Rwlock.with_read t.lock (fun () ->
      List.map (fun key -> (key / t.pages_per_extent, key mod t.pages_per_extent)) (lru_keys t))

(* Lifecycle-audit results (read-locked: the auditor is only written
   under the write lock). *)
let transitions_checked t = Conc.Rwlock.with_read t.lock (fun () -> Conc.Cache_sm.checked t.audit)

let transition_violations t =
  Conc.Rwlock.with_read t.lock (fun () -> Conc.Cache_sm.violations t.audit)
