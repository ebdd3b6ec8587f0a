(* E17: foreground throughput under a racing maintenance domain — see
   maint_contention.mli for the experiment description. *)

type arm = {
  label : string;
  flush_chunk : int;
  fg_ops : int;
  fg_errors : int;
  seconds : float;
  ops_per_sec : float;
  maint : Store.Shared.Maint.stats option;
  errors_by_kind : (string * int) list;
}

type result = {
  domains : int;
  ops_per_domain : int;
  keys : int;
  value_bytes : int;
  repeats : int;
  arms : arm list;
  conformance_ok : bool;
}

let key i = Printf.sprintf "k%04d" i

(* The store's [store.maint_error] series summed over [op], by [kind]:
   every failed flush, compaction or reclaim, whether the maintenance
   domain or the base store's own maintenance after a mutation ran it. *)
let errors_by_kind store =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match (s.name, List.assoc_opt "kind" s.labels, s.value) with
      | "store.maint_error", Some kind, Obs.Counter_v n ->
        (kind, n + Option.value ~default:0 (List.assoc_opt kind acc)) :: List.remove_assoc kind acc
      | _ -> acc)
    []
    (Obs.snapshot (Store.Shared.obs store))
  |> List.sort compare

(* One timed arm: preload [keys] values into the base (flushed down, so
   foreground gets read through the stack lock, where flush contention
   bites), then race the foreground domains — a get-heavy mix with
   periodic [put_batch] bursts that spike the staging overlay, so a
   maintenance drain spans several chunks and the two flush protocols
   actually differ: coarse holds the stack write lock across the whole
   spike, narrowed releases it between chunks and lets the waiting
   foreground gets through. Foreground wall-clock only: the maintenance
   worker is started before the clock and stopped after it. *)
let run_arm ~label ~domains ~ops_per_domain ~keys ~value_bytes ~seed ~flush_chunk ~with_maint
    ~flush_every () =
  let store =
    Store.Shared.create ~shards:4 ~flush_chunk Store.Default.default_config
  in
  let value d i = String.make (max 1 value_bytes) 'x' ^ Printf.sprintf "-%d-%d" d i in
  let preload_errors = ref 0 in
  for i = 0 to keys - 1 do
    match Store.Shared.put store ~key:(key i) ~value:(value 0 i) with
    | Ok () -> ()
    | Error _ -> incr preload_errors
  done;
  (match Store.Shared.flush store with Ok _ -> () | Error _ -> incr preload_errors);
  let burst = max 8 (keys / 4) in
  let worker d =
    let rng = Util.Rng.of_int ((seed * 8191) + d) in
    let errors = ref 0 in
    for i = 0 to ops_per_domain - 1 do
      let k = key (Util.Rng.int rng keys) in
      let r = Util.Rng.int rng 100 in
      let failed =
        if r < 60 then Result.is_error (Store.Shared.get store ~key:k)
        else if r < 90 then Result.is_error (Store.Shared.put store ~key:k ~value:(value d i))
        else begin
          (* staging spike: one burst stages [burst] keys at once *)
          let off = Util.Rng.int rng keys in
          let entries =
            List.init burst (fun j -> (key ((off + j) mod keys), value d i))
          in
          Result.is_error (Store.Shared.put_batch store entries)
        end
      in
      if failed then incr errors;
      (* The pre-maintenance-plane discipline: the foreground itself must
         drain staging every so often, stalling on a whole-store flush —
         and periodically compact and reclaim-until-dry inline too, or
         the log fills up and the run dies of No_space. Frequent small
         flushes barely coalesce staged overwrites, so this arm also
         pushes far more bytes than a lazy maintenance drain: that write
         amplification is part of what the baseline costs. *)
      if flush_every > 0 && i mod flush_every = flush_every - 1 then begin
        if Result.is_error (Store.Shared.flush store) then incr errors;
        if (i / flush_every) mod 4 = 3 then begin
          if Result.is_error (Store.Shared.compact store) then incr errors;
          let rec drain_garbage budget =
            if budget > 0 then
              match Store.Shared.reclaim store with
              | Ok true -> drain_garbage (budget - 1)
              | Ok false -> ()
              | Error _ -> incr errors
          in
          drain_garbage 32
        end
      end
    done;
    !errors
  in
  let maint_worker =
    if with_maint then
      Some (Store.Shared.Maint.start ~compact_every:16 ~reclaim_every:64 store)
    else None
  in
  let t0 = Util.Wallclock.now_s () in
  let per_domain_errors = Conc.Domains.spawn_join ~domains worker in
  let seconds = Util.Wallclock.now_s () -. t0 in
  let maint = Option.map Store.Shared.Maint.stop maint_worker in
  let fg_ops = domains * ops_per_domain in
  {
    label;
    flush_chunk;
    fg_ops;
    fg_errors = !preload_errors + List.fold_left ( + ) 0 per_domain_errors;
    seconds;
    ops_per_sec = (if seconds > 0.0 then float_of_int fg_ops /. seconds else 0.0);
    maint;
    errors_by_kind = errors_by_kind store;
  }

(* Byte-identity: ONE domain drives the same seeded put/get/delete
   sequence through a Store.Shared (with maintenance-plane calls
   interspersed: narrowed shard flushes, compactions, reclaims) and
   through a bare Store.Default; the final listings and every key's
   value must agree byte for byte — the maintenance plane is invisible
   to single-domain semantics. *)
let conformance ~ops ~seed () =
  let shared = Store.Shared.create ~shards:4 Store.Default.default_config in
  let plain = Store.Default.create Store.Default.default_config in
  let rng = Util.Rng.of_int (seed * 131) in
  let keys = 32 in
  let mismatches = ref 0 in
  for i = 0 to ops - 1 do
    let k = key (Util.Rng.int rng keys) in
    let v = Printf.sprintf "v%d" i in
    (match Util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
      (match
         ( Store.Shared.put shared ~key:k ~value:v,
           Store.Default.put plain ~key:k ~value:v )
       with
      | Ok (), Ok _ -> ()
      | _ -> incr mismatches)
    | 5 | 6 -> (
      match (Store.Shared.delete shared ~key:k, Store.Default.delete plain ~key:k) with
      | Ok (), Ok _ -> ()
      | _ -> incr mismatches)
    | _ -> (
      match (Store.Shared.get shared ~key:k, Store.Default.get plain ~key:k) with
      | Ok a, Ok b when a = b -> ()
      | _ -> incr mismatches));
    (* Maintenance interspersed mid-sequence: must not change what any
       later op observes. *)
    if i mod 7 = 6 then
      ignore (Store.Shared.flush_shard shared (i mod 4) : (int, _) Stdlib.result);
    if i mod 13 = 12 then ignore (Store.Shared.compact shared : (unit, _) Stdlib.result);
    if i mod 17 = 16 then ignore (Store.Shared.reclaim shared : (bool, _) Stdlib.result)
  done;
  let lists_agree =
    match (Store.Shared.list shared, Store.Default.list plain) with
    | Ok a, Ok b -> a = b
    | _ -> false
  in
  let gets_agree =
    List.init keys key
    |> List.for_all (fun k ->
           match (Store.Shared.get shared ~key:k, Store.Default.get plain ~key:k) with
           | Ok a, Ok b -> a = b
           | _ -> false)
  in
  !mismatches = 0 && lists_agree && gets_agree

(* (label, flush_chunk, racing maintenance domain, inline flush period) *)
let arms_spec =
  [
    (* no flushing at all: the raw foreground ceiling (staging grows) *)
    ("fg-only", 8, false, 0);
    (* the global-stack-lock baseline — the only way to run maintenance
       before this plane existed: each foreground domain periodically
       stalls on a whole-store flush with whole-drain stack holds *)
    ("inline-coarse", 0, false, 50);
    (* racing maintenance domain, whole-drain stack holds (PR-6 flush
       protocol driven from the new domain) *)
    ("maint-coarse", 0, true, 0);
    (* racing maintenance domain, narrowed stack critical sections — the
       full maintenance plane *)
    ("maint-narrow", 8, true, 0);
  ]

let run ?(domains = 4) ?(ops_per_domain = 2000) ?(keys = 256) ?(value_bytes = 256)
    ?(repeats = 3) ?(seed = 0) ?(conformance_ops = 120) () =
  let arms =
    List.map
      (fun (label, flush_chunk, with_maint, flush_every) ->
        (* Median over [repeats] runs per arm, so one scheduler hiccup on a
           busy box does not decide the recorded number. *)
        Bench_gate.median
          ~by:(fun a -> a.ops_per_sec)
          (List.init (max 1 repeats) (fun r ->
               run_arm ~label ~domains ~ops_per_domain ~keys ~value_bytes ~seed:(seed + r)
                 ~flush_chunk ~with_maint ~flush_every ())))
      arms_spec
  in
  {
    domains;
    ops_per_domain;
    keys;
    value_bytes;
    repeats;
    arms;
    conformance_ok = conformance ~ops:conformance_ops ~seed ();
  }

let arm r label = List.find (fun a -> a.label = label) r.arms

(* The contention headline: foreground throughput with a racing narrowed
   flush must not fall below the global-stack-lock baseline, where the
   foreground stalls on its own whole-drain flushes. *)
let narrow_beats_baseline r =
  (arm r "maint-narrow").ops_per_sec >= (arm r "inline-coarse").ops_per_sec

(* The two racing arms compared: narrowed vs whole-drain stack holds.
   Only meaningful with real parallelism — on one core every chunk
   boundary is a forced context switch, so this ordering is asserted on
   multi-core hosts only. *)
let narrow_beats_coarse r =
  (arm r "maint-narrow").ops_per_sec >= (arm r "maint-coarse").ops_per_sec

let ok r =
  r.conformance_ok
  && List.for_all (fun a -> a.fg_ops > 0 && a.fg_errors = 0) r.arms
  && List.for_all
       (fun a ->
         match a.maint with
         | None -> true
         | Some s -> s.Store.Shared.Maint.errors = 0 && s.Store.Shared.Maint.flushes > 0)
       r.arms

let print r =
  Printf.printf "E17: %d foreground domains x %d ops, %d keys, %d-byte values (median of %d)\n"
    r.domains r.ops_per_domain r.keys r.value_bytes r.repeats;
  List.iter
    (fun a ->
      let maint =
        match a.maint with
        | None -> "no maintenance domain"
        | Some s ->
          let kinds =
            match List.filter (fun (_, n) -> n > 0) a.errors_by_kind with
            | [] -> "none"
            | l -> String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) l)
          in
          Printf.sprintf "maint: %d flushes draining %d, %d compacts, %d errors (by kind: %s)"
            s.Store.Shared.Maint.flushes s.Store.Shared.Maint.drained
            s.Store.Shared.Maint.compacts s.Store.Shared.Maint.errors kinds
      in
      Printf.printf "  %-12s (flush_chunk %2d): %8.0f fg ops/s in %.3fs, %d errors; %s\n"
        a.label a.flush_chunk a.ops_per_sec a.seconds a.fg_errors maint)
    r.arms;
  Printf.printf
    "  narrowed vs inline baseline: %.2fx; narrowed vs coarse racing: %.2fx; single-domain \
     byte-identity: %s\n"
    ((arm r "maint-narrow").ops_per_sec /. Float.max 1e-9 (arm r "inline-coarse").ops_per_sec)
    ((arm r "maint-narrow").ops_per_sec /. Float.max 1e-9 (arm r "maint-coarse").ops_per_sec)
    (if r.conformance_ok then "ok" else "FAILED")
