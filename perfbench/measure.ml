(* The client loop, per-op timing, probes and the registries read after
   the run. *)

module S = Store.Default
module Samples = Stats.Samples

let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let get_s = Samples.create ()
let put_s = Samples.create ()
let batch_s = Samples.create ()
let scan_s = Samples.create ()
let setup_times = ref []
let client_ops = ref 0

(* One client op: counted, timed from the call to the decoded reply, and a
   root span when tracing. *)
let client ?(n = 1) name samples f =
  Stats.attempt n;
  incr client_ops;
  Stats.timed samples (fun () -> Span.with_ name f)

(* Build the system and preload it at least five times and for at least
   four seconds; the set-up time is the median and the last build is the one
   measured. The heap is compacted before each build so a discarded build
   does not count towards the peak heap, and so the collector's state left
   by earlier work does not land in one build's time. *)
let setup build =
  let start = Span.now () in
  let rec go n =
    Gc.compact ();
    let t0 = Span.now () in
    let x = build () in
    setup_times := Stats.s_since t0 :: !setup_times;
    if n >= 5 && Stats.s_since start >= 4. then x else go (n + 1)
  in
  go 1

(* Closed loop: one client calls [step i] until [--seconds] pass. The
   result is the throughput: the growth of [work ()], a running count of
   completed ops, per second within each window of at least one second,
   median over the windows, so a noisy stretch of a shared host moves one
   window and not the figure. A traced run alternates untraced and traced
   blocks, so the overhead is measured over the same stretch of the run.
   Probe time is left out of both. *)
type phase = { mutable steps : int; mutable ns : int }

let plain = { steps = 0; ns = 0 }
let traced = { steps = 0; ns = 0 }
let probe_ns = ref 0

let closed_loop ~work step =
  let start = Span.now () in
  let deadline = start + int_of_float (!seconds *. 1e9) in
  let block = 200_000_000 in
  let i = ref 0 and t = ref start in
  let rates = ref [] and window_t = ref start and window_work = ref (work ()) in
  let close_window () =
    rates :=
      (float_of_int (work () - !window_work) /. (float_of_int (!t - !window_t) /. 1e9)) :: !rates;
    window_t := !t;
    window_work := work ()
  in
  while !t < deadline do
    let ph = if !trace = 1 && (!t - start) / block mod 2 = 1 then traced else plain in
    Span.on := ph == traced;
    Span.next_request ();
    let p0 = !probe_ns in
    step !i;
    let t' = Span.now () in
    ph.steps <- ph.steps + 1;
    ph.ns <- ph.ns + (t' - !t) - (!probe_ns - p0);
    t := t';
    incr i;
    if !t - !window_t >= 1_000_000_000 then close_window ()
  done;
  Span.on := false;
  if !rates = [] then close_window ();
  Stats.median !rates

let probe name f =
  let t0 = Span.now () in
  let r = Span.with_ name f in
  probe_ns := !probe_ns + (Span.now () - t0);
  r

(* Side reads of one key straight from its store, in traced blocks only:
   what the store, the index and the chunk store each cost for it. *)
let probe_read store key =
  ignore (probe "probe.store.get" (fun () -> S.get store ~key));
  match probe "probe.lsm.locate" (fun () -> S.locators store ~key) with
  | Ok (Some locs) ->
      probe "probe.chunk.read" (fun () ->
          List.iter (fun l -> ignore (Chunk.Chunk_store.get (S.chunk_store store) l)) locs)
  | _ -> ()

(* Median of 21 timed passes of a post-run read-back. *)
let read_back f =
  Stats.median
    (List.init 21 (fun _ ->
         let t0 = Span.now () in
         f ();
         Stats.s_since t0))

(* The registries of the system under test. *)
let regs = ref []
let watch o = if not (List.memq o !regs) then regs := o :: !regs
let counter name = List.fold_left (fun a o -> a + Obs.counter_value o name) 0 !regs

let geometry extents =
  { S.default_config with S.disk = { S.default_config.S.disk with Disk.extent_count = extents } }

let capacity cfg = cfg.S.disk.Disk.extent_count * Disk.extent_size cfg.S.disk
let cache_bytes cfg = cfg.S.cache_pages * cfg.S.disk.Disk.page_size
let fact fmt = Printf.printf ("shape: " ^^ fmt ^^ "\n")

type amp = {
  stored : int;  (** user bytes acknowledged, times the replicas holding them *)
  write_amp : float;
  space_amp : float;
  run_bytes : int;
  runs_end : int;
}

let sum_over stores f = List.fold_left (fun a s -> a + f s) 0 stores

(* Bytes held in extents (the sum of soft write pointers) by [stores],
   which hold [replicas] copies of the model, per live user byte. Reclaim
   makes this saw-tooth, so single-domain workloads sample it during the
   run too and the reported value is the median sample. *)
let space_samples = ref []

let note_space (kv : Inputs.kv) stores ~replicas =
  let held s =
    let n = ref 0 in
    for extent = 0 to (S.config s).S.disk.Disk.extent_count - 1 do
      n := !n + Io_sched.soft_ptr (S.sched s) ~extent
    done;
    !n
  in
  space_samples :=
    (float_of_int (sum_over stores held) /. float_of_int (replicas * Inputs.live_bytes kv))
    :: !space_samples

(* Disk bytes written by [stores] per user byte they were asked to hold. *)
let amplification (kv : Inputs.kv) stores ~replicas =
  note_space kv stores ~replicas;
  let stored = replicas * kv.user_bytes in
  {
    stored;
    write_amp =
      float_of_int (sum_over stores (fun s -> Obs.counter_value (S.obs s) "disk.bytes_written"))
      /. float_of_int stored;
    space_amp = Stats.median !space_samples;
    run_bytes = sum_over stores (fun s -> Obs.counter_value (S.obs s) "index.run_bytes");
    runs_end = sum_over stores S.index_run_count;
  }

(* What a workload hands back for the end-to-end metrics. *)
type outcome = {
  ops_per_s : float;  (** the closed loop's throughput *)
  work : int;  (** ops completed: client ops, or checked ops *)
  amp : amp;
  validate_s : float;
  nkeys : int;
}
