type 'a t = {
  shards : int;
  locks : Rwlock.t array;
  tables : (string, 'a) Hashtbl.t array;
}

let create ?(shards = 8) () =
  if shards < 1 then invalid_arg "Shard_table.create: shards must be >= 1";
  {
    shards;
    locks = Array.init shards (fun _ -> Rwlock.create ~name:"shard" ());
    tables = Array.init shards (fun _ -> Hashtbl.create 64);
  }

let shards t = t.shards
let shard_of t key = Hashtbl.hash key mod t.shards

let with_key_read t key f =
  let i = shard_of t key in
  Rwlock.with_read t.locks.(i) (fun () -> f t.tables.(i))

let with_key_write t key f =
  let i = shard_of t key in
  Rwlock.with_write t.locks.(i) (fun () -> f t.tables.(i))

let with_shard_read t i f =
  if i < 0 || i >= t.shards then invalid_arg "Shard_table.with_shard_read: bad shard";
  Rwlock.with_read t.locks.(i) (fun () -> f t.tables.(i))

let with_shard_write t i f =
  if i < 0 || i >= t.shards then invalid_arg "Shard_table.with_shard_write: bad shard";
  Rwlock.with_write t.locks.(i) (fun () -> f t.tables.(i))

(* All-shard sections acquire in ascending shard order (the global lock
   order) and release in descending order. *)
let with_all ~acquire ~release t f =
  for i = 0 to t.shards - 1 do
    acquire t.locks.(i)
  done;
  Fun.protect
    ~finally:(fun () ->
      for i = t.shards - 1 downto 0 do
        release t.locks.(i)
      done)
    (fun () -> f t.tables)

let with_all_read t f = with_all ~acquire:Rwlock.acquire_read ~release:Rwlock.release_read t f

let with_all_write t f =
  with_all ~acquire:Rwlock.acquire_write ~release:Rwlock.release_write t f

let size t =
  with_all_read t (fun tables -> Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 tables)
