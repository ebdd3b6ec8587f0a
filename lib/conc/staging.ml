(* The staging protocol of [Store.Shared]: every lock it takes, over a
   base store given as a parameter (see staging.mli). *)

module type BASE = sig
  type t
  type error
  type reboot

  val get : t -> key:string -> (string option, error) result
  val put_batch : t -> (string * string) list -> (unit, error) result
  val delete_batch : t -> string list -> (unit, error) result
  val list : t -> (string list, error) result
  val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, error) result
  val compact : t -> (unit, error) result
  val reclaim : t -> (bool, error) result
  val clean_shutdown : t -> (unit, error) result
  val dirty_reboot : t -> reboot -> (unit, error) result
end

(* bin/lint.exe resolves a call [Base.f] here to the [f] of every module
   named [Base], so each instantiation names its base module [Base]: the
   static lock graph then sees what the base acquires under these locks. *)
module Make (Base : BASE) = struct
  type t = {
    base : Base.t;
    staging : string option Shard_table.t;  (* None = staged tombstone *)
    stack : Rwlock.t;  (* guards every [base] access *)
    maint : Rwlock.t;  (* serializes the maintenance plane; first in the lock order *)
    flush_chunk : int;  (* ops applied per stack hold during a flush; 0 = whole drain *)
    on_stack_hold : unit -> unit;
    on_drained : int -> unit;
  }

  let create ?(shards = 8) ?(flush_chunk = 32) ?(on_stack_hold = ignore) ?(on_drained = ignore)
      base =
    {
      base;
      staging = Shard_table.create ~shards ();
      stack = Rwlock.create ~name:"stack" ();
      maint = Rwlock.create ~name:"maint" ();
      flush_chunk;
      on_stack_hold;
      on_drained;
    }

  let base t = t.base
  let shards t = Shard_table.shards t.staging
  let shard_of t key = Shard_table.shard_of t.staging key
  let staged_count t = Shard_table.size t.staging
  let staged_in t i = Shard_table.with_shard_read t.staging i (fun tbl -> Hashtbl.length tbl)

  (* Staging under the shard write lock is the linearization point of a
     mutation: once the lock is released the new value is visible to
     every get of the key, whether or not it has been flushed down. *)
  let stage t ~key v =
    Shard_table.with_key_write t.staging key (fun tbl -> Hashtbl.replace tbl key v)

  (* The shard read lock is held across BOTH the staged probe and the
     base read: a flush of this shard cannot slide in between, so a get
     observes either (staged value) or (post-flush base value), never
     the window where the key is in neither place. *)
  let get t ~key =
    Shard_table.with_key_read t.staging key (fun tbl ->
        match Hashtbl.find_opt tbl key with
        | Some v -> `Staged v
        | None -> `Base (Rwlock.with_read t.stack (fun () -> Base.get t.base ~key)))

  (* Batch staging: per-shard groups, each staged under one shard write
     lock acquisition, shards visited in ascending index order (the
     global lock order). Within a shard the original op order is kept,
     so a later op on the same key wins, as in the sequential loop. *)
  let stage_batch t entries =
    let by_shard = Array.make (shards t) [] in
    List.iter
      (fun (k, v) ->
        let i = shard_of t k in
        by_shard.(i) <- (k, v) :: by_shard.(i))
      entries;
    Array.iteri
      (fun i group ->
        if group <> [] then
          Shard_table.with_shard_write t.staging i (fun tbl ->
              List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (List.rev group)))
      by_shard

  (* Split [l] into groups of at most [n], preserving order. *)
  let chunked n l =
    let rec go acc cur len = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if len = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (len + 1) rest
    in
    go [] [] 0 l

  (* A shard's staged puts and deletes, each sorted by key, and its size. *)
  let snapshot tbl =
    let puts k v acc = match v with Some v -> (k, v) :: acc | None -> acc in
    let dels k v acc = match v with None -> k :: acc | Some _ -> acc in
    (Util.Tbl.fold_sorted puts tbl [], Util.Tbl.fold_sorted dels tbl [], Hashtbl.length tbl)

  (* Apply drained puts, then deletes, to the base under the stack write
     lock: with [flush_chunk > 0] it is taken per chunk of that many ops,
     so foreground gets on OTHER shards (shard read + stack read) keep
     flowing between chunks; [flush_chunk = 0] is the coarse protocol,
     one stack hold across the whole drain. *)
  let apply t puts dels =
    let ( let* ) = Result.bind in
    let hold f =
      Rwlock.with_write t.stack (fun () ->
          t.on_stack_hold ();
          f ())
    in
    if t.flush_chunk <= 0 then
      if puts = [] && dels = [] then Ok ()
      else
        hold (fun () ->
            let* () = if puts = [] then Ok () else Base.put_batch t.base puts in
            if dels = [] then Ok () else Base.delete_batch t.base dels)
    else
      let each f groups =
        List.fold_left
          (fun acc group ->
            let* () = acc in
            hold (fun () -> f group))
          (Ok ()) groups
      in
      let* () = each (Base.put_batch t.base) (chunked t.flush_chunk puts) in
      each (Base.delete_batch t.base) (chunked t.flush_chunk dels)

  (* Drain one shard into the base. The shard write lock covers the whole
     drain — a get of one of THIS shard's keys blocks, so it can never
     observe the window where a key is in neither staging nor base — and
     the staging is cleared only once every entry is applied.

     Error semantics: on any batch error the staging table is left
     intact. Chunks already applied below are harmless — staging still
     shadows them, and re-running the flush re-applies the same values
     idempotently — so an acked mutation is never dropped.

     Fault #19 clears the staging under the shard lock and applies it
     after releasing the lock: a get in between reads the old base. *)
  let flush_shard_exn t i =
    if Faults.enabled Faults.F19_flush_clears_staging_early then begin
      Faults.record_fired Faults.F19_flush_clears_staging_early;
      let puts, dels, drained =
        Shard_table.with_shard_write t.staging i (fun tbl ->
            let s = snapshot tbl in
            Hashtbl.reset tbl;
            s)
      in
      Result.map
        (fun () ->
          t.on_drained drained;
          drained)
        (apply t puts dels)
    end
    else
      Shard_table.with_shard_write t.staging i (fun tbl ->
          let puts, dels, drained = snapshot tbl in
          match apply t puts dels with
          | Ok () ->
            Hashtbl.reset tbl;
            t.on_drained drained;
            Ok drained
          | Error e -> Error e)

  (* Every shard, ascending, stopping at the first error: the failing
     shard and the ones after it keep their staged entries. *)
  let drain_all t =
    let rec go i drained =
      if i >= shards t then Ok drained
      else match flush_shard_exn t i with Ok n -> go (i + 1) (drained + n) | Error e -> Error e
    in
    go 0 0

  (* {2 Maintenance plane}

     Every operation below first takes the [maint] write lock — class
     "maint", FIRST in the global order maint < shard < stack < cache —
     so maintenance is serialized against itself while staying free to
     take any shard or stack lock underneath. Foreground ops never touch
     the maint lock. *)

  let flush t = Rwlock.with_write t.maint (fun () -> drain_all t)
  let flush_shard t i = Rwlock.with_write t.maint (fun () -> flush_shard_exn t i)

  (* Structural maintenance on the base needs no shard lock — staging is
     untouched, and the stack write lock alone orders it against every
     foreground read of the base. *)
  let compact t =
    Rwlock.with_write t.maint (fun () -> Rwlock.with_write t.stack (fun () -> Base.compact t.base))

  let reclaim t =
    Rwlock.with_write t.maint (fun () -> Rwlock.with_write t.stack (fun () -> Base.reclaim t.base))

  (* Drain every staged entry (an acked mutation must reach the base),
     then shut the base down. *)
  let clean_shutdown t =
    Rwlock.with_write t.maint (fun () ->
        match drain_all t with
        | Error e -> Error e
        | Ok _ -> Rwlock.with_write t.stack (fun () -> Base.clean_shutdown t.base))

  (* Staged entries are volatile and dropped. All shard write locks are
     taken (ascending) around the stack write lock, so no foreground op
     is mid-flight when volatile state vanishes. *)
  let dirty_reboot t reboot =
    Rwlock.with_write t.maint (fun () ->
        Shard_table.with_all_write t.staging (fun tables ->
            Array.iter Hashtbl.reset tables;
            Rwlock.with_write t.stack (fun () -> Base.dirty_reboot t.base reboot)))

  (* {2 The staged overlay}

     Staged values (made elements by [staged]) shadow base elements of
     the same key in a sorted base listing of elements keyed by [key];
     staged tombstones hide them. Only staged keys inside [lo, hi] apply.
     Each key lives in exactly one shard table, so the staged keys are
     distinct. *)
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

  (* All shard read locks (ascending) around the stack read lock — the
     established shard < stack order — so the overlay and the base
     snapshot are mutually consistent. *)
  let list t =
    Shard_table.with_all_read t.staging (fun tables ->
        Rwlock.with_read t.stack (fun () ->
            Result.map
              (overlay tables ~lo:None ~hi:None ~key:Fun.id ~staged:(fun k _ -> k))
              (Base.list t.base)))

  let scan t ?lo ?hi () =
    Shard_table.with_all_read t.staging (fun tables ->
        Rwlock.with_read t.stack (fun () ->
            Result.map
              (overlay tables ~lo ~hi ~key:fst ~staged:(fun k v -> (k, v)))
              (Base.scan t.base ?lo ?hi ())))
end
