(* The storage workload. *)

open Inputs
open Measure
module Node = Rpc.Node

(* point-read: a 4-disk [Rpc.Node] behind the wire codec, Zipf(0.99) keys,
   mostly gets. Live data is 8x each disk's cache and far below capacity,
   so the read path does the work and reclamation never runs. *)
let point_read () =
  let nkeys = 4000 and disks = 4 and cfg = geometry 1024 in
  let rng = Util.Rng.of_int !seed in
  let pool = value_pool rng ~count:4096 ~bytes:512 in
  let pick = zipf rng ~n:nkeys ~theta:0.99 in
  let ops = gen_ops rng ~count:(1 lsl 17) ~keys:nkeys ~values:4096 ~pick ~mix:(925, 50, 10) in
  let kv = kv_create ~keys:nkeys ~pool in
  let node =
    setup (fun () ->
        kv_reset kv;
        let node = Node.create ~disks cfg in
        Rpc_client.preload node kv;
        node)
  in
  let stores = List.init disks (fun disk -> Node.store node ~disk) in
  watch (Node.obs node);
  List.iter (fun s -> watch (S.obs s)) stores;
  (* The amplification figures are taken after a fixed number of ops, not at
     the end of the run: both grow as the run goes on, and the number of ops
     a run completes follows the speed of the host. *)
  let amp_at = 1 lsl 15 and amp = ref None in
  let ops_per_s =
    closed_loop ~work:(fun () -> !client_ops) (fun i ->
        let op = ops.(i land (Array.length ops - 1)) in
        Rpc_client.op node kv op;
        (match op with
        | Get k when !Span.on && i land 3 = 0 ->
            let key = kv.keys.(k) in
            probe_read (Node.store node ~disk:(Node.disk_of_key node key)) key
        | _ -> ());
        if i land 63 = 63 then Rpc_client.tick node;
        if i = amp_at - 1 then amp := Some (amplification kv stores ~replicas:1)
        else if i land 1023 = 1023 && i < amp_at then note_space kv stores ~replicas:1)
  in
  let amp = match !amp with Some a -> a | None -> amplification kv stores ~replicas:1 in
  fact "live %d B is %.1fx each disk's %d B cache, per disk (want > 2x)" (live_bytes kv)
    (float_of_int (live_bytes kv / disks) /. float_of_int (cache_bytes cfg))
    (cache_bytes cfg);
  let disk_bytes = counter "disk.bytes_written" / disks in
  fact "disk bytes written %d B per disk, %.2fx the %d B disk capacity" disk_bytes
    (float_of_int disk_bytes /. float_of_int (capacity cfg))
    (capacity cfg);
  fact "reclaims %d (want 0)" (counter "chunk.reclamation");
  let validate_s = read_back (fun () -> Rpc_client.read_back node kv) in
  { ops_per_s; work = !client_ops; amp; validate_s; nkeys }
