type entry = { data : string; mutable last_used : int }

module Ticks = Map.Make (Int)

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
  pages : (int * int, entry) Hashtbl.t;  (* (extent, page index) -> content *)
  mutable lru : (int * int) Ticks.t;
      (* last_used -> (extent, page index), one binding per resident page.
         Ticks are unique, so the minimum binding is the LRU victim. *)
  states : (int * int, Conc.Cache_sm.state) Hashtbl.t;  (* absent = Empty *)
  audit : Conc.Cache_sm.audit;
  lock : Conc.Rwlock.t;
  obs : Obs.t;
  m : metrics;
  mutable tick : int;
}

let create ?(capacity_pages = 64) ?(write_allocate = false) ?obs sched =
  let obs = match obs with Some o -> o | None -> Io_sched.obs sched in
  {
    sched;
    capacity = max 1 capacity_pages;
    write_allocate;
    pages = Hashtbl.create 128;
    lru = Ticks.empty;
    states = Hashtbl.create 128;
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
    tick = 0;
  }

let write_allocate t = t.write_allocate
let obs t = t.obs

(* Every entry mutation is a SimpleCacheSM edge, audited against
   Cache_sm.legal. The real cache only visits the Empty/Reading/Clean
   subset (it is a read cache: writes invalidate instead of dirtying), so
   Dirty/Writeback never appear here — the Conc_shared model exercises
   those. States are stored explicitly (absent = Empty) and must be
   updated under [t.lock] in write mode. *)
let page_state t key =
  match Hashtbl.find_opt t.states key with Some s -> s | None -> Conc.Cache_sm.Empty

let transition t key new_s =
  let old_s = page_state t key in
  Conc.Cache_sm.record t.audit ~page:(snd key) ~old_s ~new_s;
  if new_s = Conc.Cache_sm.Empty then Hashtbl.remove t.states key
  else Hashtbl.replace t.states key new_s
let sync_resident t = Obs.Gauge.set_int t.m.m_resident (Hashtbl.length t.pages)

let next_tick t key =
  t.tick <- t.tick + 1;
  t.lru <- Ticks.add t.tick key t.lru;
  t.tick

let touch t key entry =
  t.lru <- Ticks.remove entry.last_used t.lru;
  entry.last_used <- next_tick t key

let remove_page t key entry =
  Hashtbl.remove t.pages key;
  t.lru <- Ticks.remove entry.last_used t.lru

(* Install [data] as the most recently used copy of [key], replacing any
   older (shorter) copy. *)
let insert t key data =
  Option.iter (remove_page t key) (Hashtbl.find_opt t.pages key);
  Hashtbl.replace t.pages key { data; last_used = next_tick t key }

let evict_if_needed t =
  if Hashtbl.length t.pages > t.capacity then
    match Ticks.min_binding_opt t.lru with
    | Some (_, ((extent, page) as key)) ->
      remove_page t key (Hashtbl.find t.pages key);
      transition t key Conc.Cache_sm.Empty;
      Obs.Counter.incr t.m.m_evictions;
      if Obs.tracing t.obs then
        Obs.emit t.obs ~layer:"cache" "evict"
          [ ("extent", string_of_int extent); ("page", string_of_int page) ]
    | None -> ()

(* Fetch one page's currently-readable prefix through the scheduler. *)
let fetch_page t ~extent ~page =
  let ps = Io_sched.page_size t.sched in
  let start = page * ps in
  let soft = Io_sched.soft_ptr t.sched ~extent in
  let len = min ps (soft - start) in
  if len <= 0 then
    Error (Io_sched.Io (Disk.Out_of_bounds (Printf.sprintf "page %d beyond soft pointer" page)))
  else begin
    (* Claim the entry for the fetch window. A stale short entry (partial
       page outgrown by appends) leaves the Clean state first. *)
    if page_state t (extent, page) = Conc.Cache_sm.Clean then
      transition t (extent, page) Conc.Cache_sm.Empty;
    transition t (extent, page) Conc.Cache_sm.Reading;
    match Io_sched.read t.sched ~extent ~off:start ~len with
    | Error _ as e ->
      transition t (extent, page) Conc.Cache_sm.Empty;
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
      insert t (extent, page) data;
      transition t (extent, page) Conc.Cache_sm.Clean;
      evict_if_needed t;
      sync_resident t;
      Ok data
  end

let read_locked t ~extent ~off ~len =
  if len < 0 || off < 0 then Error (Io_sched.Io (Disk.Out_of_bounds "negative offset or length"))
  else if off + len > Io_sched.soft_ptr t.sched ~extent then
    Error
      (Io_sched.Io
         (Disk.Out_of_bounds (Printf.sprintf "read [%d, %d) beyond soft pointer" off (off + len))))
  else if len = 0 then Ok ""
  else begin
    let ps = Io_sched.page_size t.sched in
    let first = off / ps and last = (off + len - 1) / ps in
    let buf = Buffer.create len in
    let rec go page =
      if page > last then Ok (Buffer.contents buf)
      else begin
        let page_data =
          match Hashtbl.find_opt t.pages (extent, page) with
          | Some entry when String.length entry.data >= min ps (off + len - (page * ps)) ->
            Obs.Counter.incr t.m.m_hits;
            touch t (extent, page) entry;
            Ok entry.data
          | Some _ | None ->
            Obs.Counter.incr t.m.m_misses;
            fetch_page t ~extent ~page
        in
        match page_data with
        | Error _ as e -> e
        | Ok data ->
          let page_start = page * ps in
          let from = max off page_start - page_start in
          let until = min (off + len) (page_start + ps) - page_start in
          Buffer.add_string buf (String.sub data from (until - from));
          go (page + 1)
      end
    in
    go first
  end

let fill_locked t ~extent ~off data =
  if t.write_allocate then begin
    Obs.Counter.incr t.m.m_fills;
    let ps = Io_sched.page_size t.sched in
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
        (* A replaced entry stays Clean (no self-loop edges); a fresh one
           fills without an IO window: Empty -> Clean. *)
        insert t (extent, page) data;
        if page_state t (extent, page) <> Conc.Cache_sm.Clean then
          transition t (extent, page) Conc.Cache_sm.Clean;
        evict_if_needed t
      end
    done;
    sync_resident t
  end

let drop_page t key =
  match Hashtbl.find_opt t.pages key with
  | Some entry ->
    remove_page t key entry;
    transition t key Conc.Cache_sm.Empty
  | None -> ()

let note_reset_locked t ~extent =
  (* Fault #2: cache was not correctly drained after resetting an extent. *)
  if Faults.enabled Faults.F2_cache_not_drained then Faults.record_fired Faults.F2_cache_not_drained
  else begin
    let ps = Io_sched.page_size t.sched in
    for page = ((Io_sched.extent_size t.sched + ps - 1) / ps) - 1 downto 0 do
      drop_page t (extent, page)
    done;
    sync_resident t
  end

let invalidate_all_locked t =
  Util.Tbl.iter_sorted (fun key _ -> transition t key Conc.Cache_sm.Empty) t.pages;
  Hashtbl.reset t.pages;
  t.lru <- Ticks.empty;
  sync_resident t

(* Public entry points take the cache's rwlock in write mode: even [read]
   mutates (LRU ticks, miss-path inserts, evictions), which is exactly
   why a reader-writer split inside the cache would be unsound — the
   paper's SC-for-race-free argument needs every Hashtbl access inside a
   critical section. The lock nests inside the store's stack lock
   (global order: shard < stack < cache) and takes nothing itself, so it
   cannot participate in a cycle. *)
let read t ~extent ~off ~len = Conc.Rwlock.with_write t.lock (fun () -> read_locked t ~extent ~off ~len)
let fill t ~extent ~off data = Conc.Rwlock.with_write t.lock (fun () -> fill_locked t ~extent ~off data)

let note_reset t ~extent = Conc.Rwlock.with_write t.lock (fun () -> note_reset_locked t ~extent)
let invalidate_all t = Conc.Rwlock.with_write t.lock (fun () -> invalidate_all_locked t)

(* Lifecycle-audit results (read-locked: the auditor is only written
   under the write lock). *)
let transitions_checked t = Conc.Rwlock.with_read t.lock (fun () -> Conc.Cache_sm.checked t.audit)

let transition_violations t =
  Conc.Rwlock.with_read t.lock (fun () -> Conc.Cache_sm.violations t.audit)
