(* The sharded hot path of [Store.Shared], rebuilt over Smc primitives so
   its locking discipline can be schedule-checked with the race monitor
   and lock-order analysis attached. Structures mirror the real ones:
   per-shard staging lists behind per-shard model rwlocks, a base map
   behind the stack rwlock, and a cache entry behind the cache rwlock.
   Plain [Cell.get]/[Cell.set] accesses are deliberate — protection must
   come from the locks, and the FastTrack monitor verifies that it does. *)

module M = struct
  type shard = {
    lock : Rwlock.Model.t;
    staged : (string * string option) list Smc.Cell.t;
  }

  type t = {
    shards : shard array;
    stack_lock : Rwlock.Model.t;
    maint_lock : Rwlock.Model.t;
    base : (string * string) list Smc.Cell.t;
  }

  let create ?(shards = 2) ?(base = []) () =
    {
      shards =
        Array.init shards (fun _ ->
            { lock = Rwlock.Model.create ~name:"shard" (); staged = Smc.Cell.make [] });
      stack_lock = Rwlock.Model.create ~name:"stack" ();
      maint_lock = Rwlock.Model.create ~name:"maint" ();
      base = Smc.Cell.make base;
    }

  let stage t i k v =
    Rwlock.Model.with_write t.shards.(i).lock (fun () ->
        let l = Smc.Cell.get t.shards.(i).staged in
        Smc.Cell.set t.shards.(i).staged ((k, v) :: List.remove_assoc k l))

  let put t i k v = stage t i k (Some v)
  let delete t i k = stage t i k None

  (* The shard read lock is held across both the staged probe and the
     base read: a concurrent flush cannot slide between them, which is
     what makes a get atomic at its single linearization point. *)
  let get t i k =
    Rwlock.Model.with_read t.shards.(i).lock (fun () ->
        match List.assoc_opt k (Smc.Cell.get t.shards.(i).staged) with
        | Some v -> v
        | None ->
            Rwlock.Model.with_read t.stack_lock (fun () ->
                List.assoc_opt k (Smc.Cell.get t.base)))

  (* Lock order: shard (ascending) before stack. *)
  let flush_shard t i =
    Rwlock.Model.with_write t.shards.(i).lock (fun () ->
        Rwlock.Model.with_write t.stack_lock (fun () ->
            let staged = Smc.Cell.get t.shards.(i).staged in
            let apply base (k, v) =
              let base = List.remove_assoc k base in
              match v with Some v -> (k, v) :: base | None -> base
            in
            Smc.Cell.set t.base (List.fold_left apply (Smc.Cell.get t.base) (List.rev staged));
            Smc.Cell.set t.shards.(i).staged []))

  (* The narrowed maintenance flush (Store.Shared.flush_shard with
     [flush_chunk = 1]): the maint lock serializes maintenance, the
     shard write lock covers the whole drain, but the stack lock is
     taken per applied entry — between entries, foreground reads on
     other shards slide into the base. The FastTrack monitor checks that
     those interleaved base accesses are still race-free, and the
     harness asserts that releasing the stack lock mid-drain never makes
     an acked staged value unobservable. *)
  let maint_flush_shard t i =
    Rwlock.Model.with_write t.maint_lock (fun () ->
        Rwlock.Model.with_write t.shards.(i).lock (fun () ->
            let staged = List.rev (Smc.Cell.get t.shards.(i).staged) in
            List.iter
              (fun (k, v) ->
                Rwlock.Model.with_write t.stack_lock (fun () ->
                    let base = List.remove_assoc k (Smc.Cell.get t.base) in
                    Smc.Cell.set t.base
                      (match v with Some v -> (k, v) :: base | None -> base)))
              staged;
            Smc.Cell.set t.shards.(i).staged []))

  (* Structural maintenance: maint then stack, no shard lock. The base
     rewrite preserves contents (reversal), as compaction does. *)
  let maint_compact t =
    Rwlock.Model.with_write t.maint_lock (fun () ->
        Rwlock.Model.with_write t.stack_lock (fun () ->
            Smc.Cell.set t.base (List.rev (Smc.Cell.get t.base))))

  (* A batch staging into several shards nests shard write locks in
     ascending index order — the discipline under test in h_batch_order. *)
  let put_batch_ordered t kvs =
    let is = List.sort_uniq compare (List.map (fun (i, _, _) -> i) kvs) in
    let rec go = function
      | [] ->
          List.iter
            (fun (i, k, v) ->
              let l = Smc.Cell.get t.shards.(i).staged in
              Smc.Cell.set t.shards.(i).staged ((k, Some v) :: List.remove_assoc k l))
            kvs
      | i :: rest -> Rwlock.Model.with_write t.shards.(i).lock (fun () -> go rest)
    in
    go is
end

(* The cache entry lifecycle (Cache_sm) behind the cache model rwlock.
   The miss path releases the lock during the "IO" window — the entry is
   parked in [Reading]/[Writeback] so concurrent threads can see the
   window and must handle it. *)
module C = struct
  type t = {
    lock : Rwlock.Model.t;
    state : Cache_sm.state Smc.Cell.t;
    data : int Smc.Cell.t;
  }

  let create () =
    {
      lock = Rwlock.Model.create ~name:"cache" ();
      state = Smc.Cell.make Cache_sm.Empty;
      data = Smc.Cell.make 0;
    }

  let transition t ~new_s =
    let old_s = Smc.Cell.get t.state in
    if not (Cache_sm.legal old_s new_s) then
      failwith
        (Printf.sprintf "illegal cache transition %s -> %s" (Cache_sm.state_name old_s)
           (Cache_sm.state_name new_s));
    Smc.Cell.set t.state new_s

  (* Read through the cache; on a miss, claim the entry ([Reading]),
     fetch outside the lock, publish ([Clean]). A reader that finds the
     entry mid-fetch waits for the window to close and retries. *)
  let rec read t ~fetch =
    let claimed =
      Rwlock.Model.with_write t.lock (fun () ->
          match Smc.Cell.get t.state with
          | Cache_sm.Empty ->
              transition t ~new_s:Cache_sm.Reading;
              `Claimed
          | Cache_sm.Reading -> `In_flight
          | Cache_sm.Clean | Cache_sm.Dirty | Cache_sm.Writeback -> `Hit (Smc.Cell.get t.data))
    in
    match claimed with
    | `Hit v -> v
    | `Claimed ->
        let v = fetch () in
        Rwlock.Model.with_write t.lock (fun () ->
            transition t ~new_s:Cache_sm.Clean;
            Smc.Cell.set t.data v);
        v
    | `In_flight ->
        Smc.wait_until (fun () -> Smc.Cell.peek t.state <> Cache_sm.Reading);
        read t ~fetch

  let write t v =
    Rwlock.Model.with_write t.lock (fun () ->
        (match Smc.Cell.get t.state with
        | Cache_sm.Empty -> transition t ~new_s:Cache_sm.Clean
        | Cache_sm.Clean -> transition t ~new_s:Cache_sm.Dirty
        | Cache_sm.Writeback -> transition t ~new_s:Cache_sm.Dirty
        | Cache_sm.Dirty | Cache_sm.Reading -> ());
        Smc.Cell.set t.data v)

  (* Flush: claim ([Writeback]), "write IO" outside the lock, then close
     the window — unless a concurrent write re-dirtied the entry. *)
  let flush t =
    let claimed =
      Rwlock.Model.with_write t.lock (fun () ->
          match Smc.Cell.get t.state with
          | Cache_sm.Dirty ->
              transition t ~new_s:Cache_sm.Writeback;
              true
          | _ -> false)
    in
    if claimed then (
      Smc.yield ();
      Rwlock.Model.with_write t.lock (fun () ->
          match Smc.Cell.get t.state with
          | Cache_sm.Writeback -> transition t ~new_s:Cache_sm.Clean
          | _ -> (* re-dirtied during the IO window: stays Dirty *) ()))
end

type report = { name : string; property : string; outcome : Smc.outcome }

let pp_report fmt r =
  Format.fprintf fmt "%-16s %s: %a" r.name r.property Smc.pp_outcome r.outcome

(* A harness: its body explored by DFS under [Sanitize.default]. *)
let harness name property body budget =
  {
    name;
    property;
    outcome = Smc.explore ~sanitize:Sanitize.default (Smc.Dfs { max_schedules = budget }) body;
  }

(* Two writers on different shards plus a reader: shard isolation means
   the reader sees exactly its own shard's history. *)
let h_cross_shard =
  harness "shared/cross" "racing writers on distinct shards stay isolated" (fun () ->
      let t = M.create ~shards:2 ~base:[ ("a", "old") ] () in
      Smc.spawn (fun () -> M.put t 0 "a" "new");
      Smc.spawn (fun () ->
          M.put t 1 "b" "other";
          M.delete t 1 "b");
      Smc.spawn (fun () ->
          (match M.get t 0 "a" with
          | Some "old" | Some "new" -> ()
          | v ->
              failwith
                (Printf.sprintf "shard 0 read saw %s" (Option.value v ~default:"(absent)")));
          match M.get t 1 "b" with
          | None | Some "other" -> ()
          | Some v -> failwith (Printf.sprintf "shard 1 read saw %s" v)))

(* Writer, flusher and reader on ONE shard: the get must return the old
   base value or the staged value, never a torn intermediate, and the
   staged probe + base read must be atomic against the flush. *)
let h_same_shard =
  harness "shared/flush" "get is atomic against a concurrent flush of its shard" (fun () ->
      let t = M.create ~shards:1 ~base:[ ("k", "v1") ] () in
      Smc.spawn (fun () -> M.put t 0 "k" "v2");
      Smc.spawn (fun () -> M.flush_shard t 0);
      Smc.spawn (fun () ->
          match M.get t 0 "k" with
          | Some "v1" | Some "v2" -> ()
          | v ->
              failwith
                (Printf.sprintf "same-shard read saw %s" (Option.value v ~default:"(absent)"))))

(* The full SimpleCacheSM lifecycle under contention: a miss-fill with
   the IO window open, a writer dirtying the entry, a flusher driving
   Dirty -> Writeback -> Clean/Dirty. Every transition is checked
   against Cache_sm.legal inside the harness. *)
let h_cache_lifecycle =
  harness "shared/cache" "cache entries only take legal SimpleCacheSM transitions" (fun () ->
      let c = C.create () in
      Smc.spawn (fun () -> ignore (C.read c ~fetch:(fun () -> 7)));
      Smc.spawn (fun () ->
          C.write c 8;
          C.flush c);
      Smc.spawn (fun () ->
          match C.read c ~fetch:(fun () -> 7) with
          | 7 | 8 -> ()
          | v -> failwith (Printf.sprintf "cache read saw %d" v)))

(* A batch staging across two shards (nested write locks, ascending)
   races a flusher taking shard-then-stack: the global order
   shard 0 < shard 1 < stack must leave the lock graph acyclic. *)
let h_batch_order =
  harness "shared/order" "batch staging and flush agree on the global lock order" (fun () ->
      let t = M.create ~shards:2 () in
      Smc.spawn (fun () -> M.put_batch_ordered t [ (0, "a", "x"); (1, "b", "y") ]);
      Smc.spawn (fun () ->
          M.flush_shard t 1;
          M.flush_shard t 0))

(* Maintenance flusher vs foreground reads: with "a" -> "v2" staged on
   shard 0 before the race, a narrowed maintenance flush of shard 0 runs
   against a reader of shard 0 (must see the acked v2, staged or
   flushed, through every chunk boundary) and a reader of shard 1 (must
   keep seeing its own staged value — the foreground traffic a narrowed
   flush is supposed to let through). *)
let h_maint_flush =
  harness "shared/maint"
    "acked values stay visible through a narrowed maintenance flush"
    (fun () ->
      let t = M.create ~shards:2 ~base:[ ("a", "v1") ] () in
      M.put t 0 "a" "v2";
      M.put t 1 "b" "w";
      Smc.spawn (fun () -> M.maint_flush_shard t 0);
      Smc.spawn (fun () ->
          match M.get t 0 "a" with
          | Some "v2" -> ()
          | v ->
              failwith
                (Printf.sprintf "maint-racing read lost the ack: saw %s"
                   (Option.value v ~default:"(absent)")));
      Smc.spawn (fun () ->
          match M.get t 1 "b" with
          | Some "w" -> ()
          | v ->
              failwith
                (Printf.sprintf "other-shard read saw %s"
                   (Option.value v ~default:"(absent)"))))

(* The maintenance domain (maint < shard < stack via the narrowed flush,
   maint < stack via compact) races a foreground flusher (shard < stack)
   and a cross-shard batch (shard 0 < shard 1): the accumulated lock
   graph over all four acquisition paths must stay acyclic. *)
let h_maint_order =
  harness "shared/maint-order"
    "maintenance and foreground agree on the order maint < shard < stack"
    (fun () ->
      let t = M.create ~shards:2 ~base:[ ("c", "z") ] () in
      Smc.spawn (fun () ->
          M.maint_flush_shard t 1;
          M.maint_compact t);
      Smc.spawn (fun () -> M.put_batch_ordered t [ (0, "a", "x"); (1, "b", "y") ]);
      Smc.spawn (fun () -> M.flush_shard t 0))

let run ?(budget = 20_000) () =
  List.map
    (fun h -> h budget)
    [ h_cross_shard; h_same_shard; h_cache_lifecycle; h_batch_order; h_maint_flush; h_maint_order ]

let ok reports =
  reports <> []
  && List.for_all
       (fun r ->
         r.outcome.Smc.violation = None
         && r.outcome.Smc.lock_cycles = []
         && r.outcome.Smc.sanitize_accesses > 0)
       reports
