(* The Fig. 4 harness: read-after-write consistency for a fixed history
   under concurrent chunk reclamation and LSM compaction. *)
let fig4_harness () =
  let index = Conc_index.create () in
  (* Set up some initial state in the index. *)
  Conc_index.put index ~key:1 ~value:10;
  Conc_index.put index ~key:2 ~value:20;
  Conc_index.compact index;
  Conc_index.put index ~key:3 ~value:30;
  let done_ = Smc.Cell.make 0 in
  let finished () = ignore (Smc.Cell.update done_ (fun d -> d + 1)) in
  (* Spawn concurrent operations. *)
  Smc.spawn (fun () ->
      Conc_index.reclaim index ~extent:0;
      finished ());
  Smc.spawn (fun () ->
      Conc_index.compact index;
      finished ());
  Smc.spawn (fun () ->
      (* Overwrite keys and check the new value sticks. *)
      Conc_index.put index ~key:1 ~value:11;
      (match Conc_index.get index ~key:1 with
      | Some 11 -> ()
      | Some v -> failwith (Printf.sprintf "read-after-write: got %d" v)
      | None -> failwith "read-after-write: entry lost");
      finished ());
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 3);
  (* After everything settles the overwrite must still be visible. *)
  match Conc_index.get index ~key:1 with
  | Some 11 -> ()
  | Some v -> failwith (Printf.sprintf "final read: got %d" v)
  | None -> failwith "final read: entry lost"

let locator_harness () =
  let store = Conc_chunks.create () in
  let done_ = Smc.Cell.make 0 in
  Smc.spawn (fun () ->
      Conc_chunks.put store ~payload:42;
      Conc_chunks.put store ~payload:43;
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.spawn (fun () ->
      (* A published locator must always resolve to valid data. *)
      List.iter
        (fun locator ->
          match Conc_chunks.read store ~locator with
          | Some _ -> ()
          | None -> failwith "published locator points at unwritten slot")
        (Conc_chunks.published store);
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2)

let buffer_pool_harness () =
  let pool = Buffer_pool.create ~buffers:2 in
  let done_ = Smc.Cell.make 0 in
  let writer () =
    Buffer_pool.write_shard pool;
    ignore (Smc.Cell.update done_ (fun d -> d + 1))
  in
  Smc.spawn writer;
  Smc.spawn writer;
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2)

let list_remove_harness () =
  let map = Shard_map.create () in
  Shard_map.add map 1;
  Shard_map.add map 2;
  Shard_map.add map 3;
  let done_ = Smc.Cell.make 0 in
  Smc.spawn (fun () ->
      (* Shard 2 is never removed: every listing must contain it. *)
      let listing = Shard_map.list map in
      if not (List.mem 2 listing) then failwith "listing skipped a live shard";
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.spawn (fun () ->
      Shard_map.remove map 1;
      Shard_map.remove map 3;
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2)

let bulk_harness () =
  let map = Shard_map.create () in
  Shard_map.add map 3;
  let done_ = Smc.Cell.make 0 in
  Smc.spawn (fun () ->
      Shard_map.bulk_create map [ 1; 2 ];
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.spawn (fun () ->
      Shard_map.bulk_remove map [ 3 ];
      ignore (Smc.Cell.update done_ (fun d -> d + 1)));
  Smc.wait_until (fun () -> Smc.Cell.peek done_ = 2);
  if not (Shard_map.mem map 1) then failwith "created shard 1 lost";
  if not (Shard_map.mem map 2) then failwith "created shard 2 lost";
  if Shard_map.mem map 3 then failwith "removed shard 3 still present"

let harness fault =
  match fault with
  | Faults.F11_locator_race -> Some locator_harness
  | Faults.F12_buffer_pool_deadlock -> Some buffer_pool_harness
  | Faults.F13_list_remove_race -> Some list_remove_harness
  | Faults.F14_compaction_reclaim_race -> Some fig4_harness
  | Faults.F16_bulk_create_remove_race -> Some bulk_harness
  | _ -> None

let get_harness fault =
  match harness fault with
  | Some h -> h
  | None ->
    invalid_arg
      (Printf.sprintf "Conc_detect: fault #%d is not a concurrency fault" (Faults.number fault))

let detect ?sanitize strategy fault =
  let h = get_harness fault in
  Faults.reset_counters ();
  Faults.only fault (fun () -> Smc.explore ?sanitize strategy h)

let check_correct ?sanitize strategy fault =
  let h = get_harness fault in
  Faults.disable_all ();
  Smc.explore ?sanitize strategy h
