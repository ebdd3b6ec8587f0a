(* Tests for the buffer cache: hit/miss behaviour, re-fetch of outgrown
   pages, invalidation on reset, LRU eviction against a reference model,
   and the fault #2 site. *)


let config = { Disk.extent_count = 4; pages_per_extent = 4; page_size = 16 }

let make ?capacity_pages () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  (disk, sched, Cache.create ?capacity_pages sched)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %a" Io_sched.pp_error e

(* The cache's own counters: "cache.hit", "cache.miss", "cache.eviction". *)
let count cache name = Obs.counter_value (Cache.obs cache) name

let append sched ~extent data =
  ignore (ok (Io_sched.append sched ~extent ~data ~input:Dep.trivial))

let test_read_through () =
  let _, sched, cache = make () in
  append sched ~extent:0 "hello-world-data";
  Alcotest.(check string) "read" "hello-world-data" (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check string) "cached read" "hello-world-data"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check bool) "second read hit" true (count cache "cache.hit" > 0)

let test_cross_page_read () =
  let _, sched, cache = make () in
  append sched ~extent:0 (String.init 40 (fun i -> Char.chr (65 + (i mod 26))));
  let direct = ok (Io_sched.read sched ~extent:0 ~off:10 ~len:25) in
  Alcotest.(check string) "spanning pages" direct (ok (Cache.read cache ~extent:0 ~off:10 ~len:25))

let test_read_beyond_pointer () =
  let _, _, cache = make () in
  match Cache.read cache ~extent:0 ~off:0 ~len:4 with
  | Error (Io_sched.Io (Disk.Out_of_bounds _)) -> ()
  | _ -> Alcotest.fail "read beyond soft pointer must fail"

(* Appends need no invalidation: a read longer than a cached partial page
   misses and re-fetches it. *)
let test_short_page_refetched () =
  let _, sched, cache = make () in
  append sched ~extent:0 "abc";
  Alcotest.(check string) "partial page" "abc" (ok (Cache.read cache ~extent:0 ~off:0 ~len:3));
  append sched ~extent:0 "def";
  Alcotest.(check string) "extended" "abcdef" (ok (Cache.read cache ~extent:0 ~off:0 ~len:6));
  Alcotest.(check int) "re-fetched" 2 (count cache "cache.miss")

(* A failed re-fetch of an outgrown partial page drops the stale copy:
   the page leaves the cache as it leaves Clean, so a later invalidation
   records no transition out of Empty, and the next read fetches the
   whole page. *)
let test_failed_refetch_drops_stale_page () =
  let disk, sched, cache = make () in
  append sched ~extent:0 "abc";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:3));
  append sched ~extent:0 "def";
  Disk.fail_once disk ~extent:0;
  (match Cache.read cache ~extent:0 ~off:0 ~len:6 with
  | Error (Io_sched.Io Disk.Transient) -> ()
  | _ -> Alcotest.fail "re-fetch must surface the injected fault");
  Alcotest.(check (list (pair int int))) "stale copy dropped" [] (Cache.resident cache);
  Cache.invalidate_all cache;
  Alcotest.(check (list string)) "no illegal transitions" []
    (List.map (Format.asprintf "%a" Conc.Cache_sm.pp_violation) (Cache.transition_violations cache));
  Alcotest.(check string) "whole page re-read" "abcdef"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:6))

let test_note_reset_invalidates () =
  let _, sched, cache = make () in
  append sched ~extent:0 "old-data-in-page";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Io_sched.reset sched ~extent:0 ~input:Dep.trivial));
  Cache.note_reset cache ~extent:0;
  append sched ~extent:0 "new-data-in-page";
  Alcotest.(check string) "fresh after reset" "new-data-in-page"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16))

let test_f2_serves_stale_after_reset () =
  Faults.disable_all ();
  let _, sched, cache = make () in
  append sched ~extent:0 "old-data-in-page";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Io_sched.reset sched ~extent:0 ~input:Dep.trivial));
  Faults.enable Faults.F2_cache_not_drained;
  Cache.note_reset cache ~extent:0;
  Faults.disable Faults.F2_cache_not_drained;
  append sched ~extent:0 "new-data-in-page";
  Alcotest.(check string) "stale page served" "old-data-in-page"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F2_cache_not_drained > 0)

(* {2 Reference model for replacement}

   The cache as a plain table whose victim is found the slow, obvious way:
   a key-sorted scan for the smallest [last_used]. Each operation mirrors
   the real cache's accounting; the random driver below checks the real
   cache's hit, miss and eviction counters and its resident pages, in
   recency order, against it after every step. *)
module Lru_model = struct
  type t = {
    capacity : int;
    write_allocate : bool;
    page_size : int;
    pages : (int * int, int * int) Hashtbl.t;  (* key -> (cached length, last_used) *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity ~write_allocate ~page_size =
    {
      capacity;
      write_allocate;
      page_size;
      pages = Hashtbl.create 16;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let evict_if_needed m =
    if Hashtbl.length m.pages > m.capacity then begin
      let victim = ref None in
      Util.Tbl.iter_sorted
        (fun key (_, used) ->
          match !victim with
          | Some (_, u) when u <= used -> ()
          | _ -> victim := Some (key, used))
        m.pages;
      Option.iter
        (fun (key, _) ->
          Hashtbl.remove m.pages key;
          m.evictions <- m.evictions + 1)
        !victim
    end

  let insert m key len =
    m.tick <- m.tick + 1;
    Hashtbl.replace m.pages key (len, m.tick);
    evict_if_needed m

  (* [soft] is the extent's soft pointer; the read is within it. *)
  let read m ~extent ~off ~len ~soft =
    let ps = m.page_size in
    for page = off / ps to (off + len - 1) / ps do
      match Hashtbl.find_opt m.pages (extent, page) with
      | Some (cached, _) when cached >= min ps (off + len - (page * ps)) ->
        m.hits <- m.hits + 1;
        m.tick <- m.tick + 1;
        Hashtbl.replace m.pages (extent, page) (cached, m.tick)
      | Some _ | None ->
        m.misses <- m.misses + 1;
        insert m (extent, page) (min ps (soft - (page * ps)))
    done

  let fill m ~extent ~off ~len =
    if m.write_allocate then begin
      let ps = m.page_size in
      for page = off / ps to (off + len - 1) / ps do
        if page * ps >= off then insert m (extent, page) (min ps (off + len - (page * ps)))
      done
    end

  let note_reset m ~extent =
    List.iter
      (fun (e, p) -> if e = extent then Hashtbl.remove m.pages (e, p))
      (Util.Tbl.sorted_keys m.pages)

  let invalidate_all m = Hashtbl.reset m.pages

  (* The resident keys, least recently used first. *)
  let resident m =
    List.map fst
      (List.sort
         (fun (_, (_, u1)) (_, (_, u2)) -> Int.compare u1 u2)
         (Util.Tbl.sorted_bindings m.pages))
end

let run_model_sequence ~capacity ~write_allocate ~seed =
  let sched = Io_sched.create ~seed:6L (Disk.create config) in
  let cache = Cache.create ~capacity_pages:capacity ~write_allocate sched in
  let ps = config.Disk.page_size in
  let extent_size = Disk.extent_size config in
  let model = Lru_model.create ~capacity ~write_allocate ~page_size:ps in
  let rng = Util.Rng.of_int seed in
  let extents = 3 in
  let step i =
    let extent = Util.Rng.int rng extents in
    let soft = Io_sched.soft_ptr sched ~extent in
    let what =
      Util.Rng.weighted rng [ (10, `Read); (5, `Append); (1, `Reset); (1, `Invalidate) ]
    in
    (match what with
    | `Read when soft > 0 ->
      let off = Util.Rng.int rng soft in
      let len = Util.Rng.int_in rng 1 (min (soft - off) (3 * ps)) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d step %d: read" seed i)
        (ok (Io_sched.read sched ~extent ~off ~len))
        (ok (Cache.read cache ~extent ~off ~len));
      Lru_model.read model ~extent ~off ~len ~soft
    | `Read -> ()
    | `Append when soft < extent_size ->
      (* Lengths that start and end mid-page leave partial pages cached. *)
      let len = Util.Rng.int_in rng 1 (min (extent_size - soft) (2 * ps)) in
      let data = String.init len (fun j -> Char.chr (97 + ((i + j) mod 26))) in
      append sched ~extent data;
      if Util.Rng.bool rng then begin
        Cache.fill cache ~extent ~off:soft data;
        Lru_model.fill model ~extent ~off:soft ~len
      end
    | `Append -> ()
    | `Reset ->
      ignore (ok (Io_sched.reset sched ~extent ~input:Dep.trivial));
      Cache.note_reset cache ~extent;
      Lru_model.note_reset model ~extent
    | `Invalidate ->
      Cache.invalidate_all cache;
      Lru_model.invalidate_all model);
    let label what = Printf.sprintf "capacity %d seed %d step %d: %s" capacity seed i what in
    Alcotest.(check int) (label "hits") model.Lru_model.hits (count cache "cache.hit");
    Alcotest.(check int) (label "misses") model.Lru_model.misses (count cache "cache.miss");
    Alcotest.(check int) (label "evictions") model.Lru_model.evictions
      (count cache "cache.eviction");
    Alcotest.(check (list (pair int int))) (label "resident pages, LRU first")
      (Lru_model.resident model) (Cache.resident cache)
  in
  for i = 1 to 300 do
    step i
  done;
  Alcotest.(check int) "no illegal transitions" 0 (List.length (Cache.transition_violations cache));
  model.Lru_model.evictions

(* Seeded random sequences at three capacities, with and without
   write-allocate. The three extents hold 12 pages, so capacity 16 never
   evicts and checks the hit/miss accounting alone. *)
let test_eviction () =
  Faults.disable_all ();
  List.iter
    (fun capacity ->
      let evictions = ref 0 in
      List.iter
        (fun write_allocate ->
          for seed = 0 to 19 do
            evictions := !evictions + run_model_sequence ~capacity ~write_allocate ~seed
          done)
        [ false; true ];
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d evicts" capacity)
        (capacity < 12) (!evictions > 0))
    [ 1; 2; 16 ]

let test_miss_hits_injected_fault () =
  let disk, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  Disk.fail_once disk ~extent:0;
  (match Cache.read cache ~extent:0 ~off:0 ~len:8 with
  | Error (Io_sched.Io Disk.Transient) -> ()
  | _ -> Alcotest.fail "miss must surface injected fault");
  (* After the failure the entry is uncached; a retry succeeds. *)
  Alcotest.(check string) "retry" "payload-" (ok (Cache.read cache ~extent:0 ~off:0 ~len:8))

let test_hit_bypasses_injected_fault () =
  let disk, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Disk.fail_once disk ~extent:0;
  Alcotest.(check string) "hit bypasses disk" "payload-"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:8));
  Disk.heal disk ~extent:0

let test_invalidate_all () =
  let _, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Cache.invalidate_all cache;
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check int) "two misses" 2 (count cache "cache.miss")

let test_write_allocate_hits () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create ~write_allocate:true sched in
  Alcotest.(check bool) "mode" true (Cache.write_allocate cache);
  let data = String.make 32 'w' in
  (match Io_sched.append sched ~extent:0 ~data ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 data;
  (match Cache.read cache ~extent:0 ~off:0 ~len:32 with
  | Ok got -> Alcotest.(check string) "filled data" data got
  | Error _ -> Alcotest.fail "read");
  Alcotest.(check int) "no miss" 0 (count cache "cache.miss")

let test_fill_noop_without_write_allocate () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create sched in
  (match Io_sched.append sched ~extent:0 ~data:(String.make 16 'x') ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 (String.make 16 'x');
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  Alcotest.(check int) "read missed (fill was a no-op)" 1 (count cache "cache.miss")

let test_f17_corrupts_only_miss_path () =
  Faults.disable_all ();
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create ~write_allocate:true sched in
  let data = String.make 16 'd' in
  (match Io_sched.append sched ~extent:0 ~data ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 data;
  Faults.enable Faults.F17_cache_miss_path;
  (* hit path: clean data despite the armed defect *)
  (match Cache.read cache ~extent:0 ~off:0 ~len:16 with
  | Ok got -> Alcotest.(check string) "hit unaffected" data got
  | Error _ -> Alcotest.fail "read");
  (* evict by invalidating, forcing the miss path *)
  Cache.invalidate_all cache;
  (match Cache.read cache ~extent:0 ~off:0 ~len:16 with
  | Ok got -> Alcotest.(check bool) "miss corrupted" true (got <> data)
  | Error _ -> Alcotest.fail "read");
  Faults.disable_all ();
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F17_cache_miss_path > 0)

let test_coverage_counters () =
  Obs.Coverage.reset ();
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create sched in
  (match Io_sched.append sched ~extent:0 ~data:(String.make 16 'x') ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  Alcotest.(check int) "miss counted" 1 (Obs.Coverage.count "cache.miss");
  Alcotest.(check int) "hit counted" 1 (Obs.Coverage.count "cache.hit");
  Alcotest.(check (list string)) "blind spot listing" [ "cache.eviction" ]
    (Obs.Coverage.blind_spots ~expected:[ "cache.hit"; "cache.miss"; "cache.eviction" ] ())

(* Every page entry moves through the Empty/Reading/Clean lifecycle and
   each observed transition is audited against Conc.Cache_sm.legal. A
   workload covering miss-fill, eviction, invalidation and the write path
   must leave a positive checked count and zero violations. *)
let test_lifecycle_audit_clean () =
  Faults.disable_all ();
  let _, sched, cache = make ~capacity_pages:2 () in
  append sched ~extent:0 (String.make 64 'a');
  append sched ~extent:1 (String.make 32 'b');
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  (* touch enough distinct pages to force LRU eviction (capacity 2) *)
  ignore (ok (Cache.read cache ~extent:0 ~off:16 ~len:16));
  ignore (ok (Cache.read cache ~extent:0 ~off:32 ~len:16));
  ignore (ok (Cache.read cache ~extent:1 ~off:0 ~len:16));
  append sched ~extent:1 "xx";
  Cache.invalidate_all cache;
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check bool) "transitions audited" true (Cache.transitions_checked cache > 0);
  Alcotest.(check int) "no illegal transitions" 0
    (List.length (Cache.transition_violations cache))

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "read through" `Quick test_read_through;
          Alcotest.test_case "cross page read" `Quick test_cross_page_read;
          Alcotest.test_case "read beyond pointer" `Quick test_read_beyond_pointer;
          Alcotest.test_case "short page re-fetched after append" `Quick test_short_page_refetched;
          Alcotest.test_case "failed re-fetch drops stale page" `Quick
            test_failed_refetch_drops_stale_page;
          Alcotest.test_case "reset invalidates" `Quick test_note_reset_invalidates;
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
          Alcotest.test_case "write allocate" `Quick test_write_allocate_hits;
          Alcotest.test_case "fill no-op without write allocate" `Quick
            test_fill_noop_without_write_allocate;
          Alcotest.test_case "coverage counters" `Quick test_coverage_counters;
          Alcotest.test_case "lifecycle audit clean" `Quick test_lifecycle_audit_clean;
        ] );
      ( "faults",
        [
          Alcotest.test_case "#2 stale after reset" `Quick test_f2_serves_stale_after_reset;
          Alcotest.test_case "miss hits injected fault" `Quick test_miss_hits_injected_fault;
          Alcotest.test_case "hit bypasses injected fault" `Quick test_hit_bypasses_injected_fault;
          Alcotest.test_case "#17 corrupts only the miss path" `Quick
            test_f17_corrupts_only_miss_path;
        ] );
    ]
