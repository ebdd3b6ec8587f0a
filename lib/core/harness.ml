open Util
module S = Store.Default

type config = {
  store_config : S.config;
  uuid_bias : float;
  harness_seed : int64;
  full_check_every : int;
  pre_crash_hook : (S.t -> Model.Crash_model.t -> string option) option;
}

let default_config =
  {
    store_config = S.test_config;
    uuid_bias = Gen.default_bias.Gen.uuid_magic;
    harness_seed = 0xC0FFEEL;
    full_check_every = 7;
    pre_crash_hook = None;
  }

type failure_kind =
  | Divergence of { key : string; expected : string option; actual : string option }
  | List_divergence of { expected : string list; actual : string list }
  | Unexpected_error of string
  | Persistence_violation of string
  | Forward_progress_violation of string

type failure = {
  step : int;
  op : Op.t;
  kind : failure_kind;
  trace : Obs.event list;
      (** the last events from the store's trace ring when the property
          failed — what the stack was doing just before the counterexample *)
}

let pp_value fmt = function
  | None -> Format.pp_print_string fmt "<absent>"
  | Some v -> Format.fprintf fmt "%d bytes %S" (String.length v) v

let pp_failure_kind fmt = function
  | Divergence { key; expected; actual } ->
    Format.fprintf fmt "divergence on %S: model %a, implementation %a" key pp_value expected
      pp_value actual
  | List_divergence { expected; actual } ->
    Format.fprintf fmt "list divergence: model [%s], implementation [%s]"
      (String.concat "; " expected) (String.concat "; " actual)
  | Unexpected_error msg -> Format.fprintf fmt "unexpected implementation error: %s" msg
  | Persistence_violation msg -> Format.fprintf fmt "persistence violation: %s" msg
  | Forward_progress_violation msg -> Format.fprintf fmt "forward progress violation: %s" msg

let pp_failure fmt f =
  Format.fprintf fmt "step %d (%a): %a" f.step Op.pp f.op pp_failure_kind f.kind;
  if f.trace <> [] then begin
    Format.fprintf fmt "@.trailing trace (%d events):" (List.length f.trace);
    List.iter (fun e -> Format.fprintf fmt "@.  %a" Obs.pp_event e) f.trace
  end

type outcome = Passed | Failed of failure

let pp_outcome fmt = function
  | Passed -> Format.pp_print_string fmt "passed"
  | Failed f -> pp_failure fmt f

type state = {
  store : S.t;
  model : Model.Crash_model.t;
  pre_crash_hook : (S.t -> Model.Crash_model.t -> string option) option;
  rng : Rng.t;
  mutable has_failed : bool;  (** some injected failure may have taken effect *)
  mutable permanent_failures : int list;  (** extents currently failed permanently *)
  mutable permanent_damage : bool;
      (** a permanent failure occurred since the last reboot: staged writes
          were destroyed, so reads may keep failing even after the disk is
          healed (healing does not resurrect lost data) *)
  mutable window_deps : (Op.t * Dep.t) list;  (** mutations since the last reboot *)
}

exception Bug of failure_kind

let fail kind = raise (Bug kind)
let errf fmt = Format.kasprintf (fun msg -> fail (Unexpected_error msg)) fmt

(* An implementation error is tolerated only once failure injection may
   have broken something; the model has no failing operations. *)
let tolerate_error st err =
  if not st.has_failed then errf "%a" S.pp_error err

(* The "has failed" relaxation (section 4.4) allows reads to fail after an
   injected IO error, but never to return wrong data — and a read must not
   keep failing forever: one-shot faults are consumed by a retry, so a read
   that still fails with no permanent failure armed is a real bug (the
   shape of issue #5: reclamation permanently forgetting chunks after a
   transient error). *)
let read_with_retry st key =
  let rec attempt n =
    match S.get st.store ~key with
    | Ok v -> Ok v
    | Error e -> if n > 0 then attempt (n - 1) else Error e
  in
  attempt 3

let read_tolerable st =
  st.has_failed && (st.permanent_failures <> [] || st.permanent_damage)

let check_get st key =
  match read_with_retry st key with
  | Ok actual ->
    if Model.Crash_model.needs_reconcile st.model ~key then begin
      (* First successful read after a crash whose reconciliation was
         skipped (unreadable under injected failures): any allowed
         survivor is acceptable and becomes the model state. *)
      match Model.Crash_model.resolve_read st.model ~key ~observed:actual with
      | Ok () -> ()
      | Error v ->
        fail (Persistence_violation (Format.asprintf "%a" Model.Crash_model.pp_violation v))
    end
    else begin
      let expected = Model.Crash_model.get st.model ~key in
      if actual <> expected then fail (Divergence { key; expected; actual })
    end
  | Error S.Out_of_service when not (S.in_service st.store) -> ()
  | Error e ->
    if read_tolerable st then ()
    else errf "get %S keeps failing with no fault armed: %a" key S.pp_error e

let check_list st =
  let unresolved =
    List.exists
      (fun key -> Model.Crash_model.needs_reconcile st.model ~key)
      (Model.Crash_model.tracked_keys st.model)
  in
  let expected = Model.Crash_model.list st.model in
  let rec attempt n =
    match S.list st.store with
    | Ok actual -> Ok actual
    | Error e -> if n > 0 then attempt (n - 1) else Error e
  in
  match attempt 3 with
  | Ok actual ->
    let actual = List.sort String.compare actual in
    (* With unreconciled keys the expected key set is ambiguous; per-key
       reads settle them first. *)
    if (not unresolved) && actual <> expected then
      fail (List_divergence { expected; actual })
  | Error S.Out_of_service when not (S.in_service st.store) -> ()
  | Error e ->
    if read_tolerable st then ()
    else errf "list keeps failing with no fault armed: %a" S.pp_error e

(* Scan conformance: hold one scan to three obligations — order
   discipline (strictly ascending, in-bounds keys), per-key value
   agreement with the model (reconciling post-crash ambiguity exactly like
   point reads), and completeness (no tracked live key in range missing,
   no untracked key invented). *)
let check_scan st ~lo ~hi =
  let rec attempt n =
    match S.scan st.store ?lo ?hi () with
    | Ok pairs -> Ok pairs
    | Error e -> if n > 0 then attempt (n - 1) else Error e
  in
  match attempt 3 with
  | Ok pairs ->
    ignore
      (List.fold_left
         (fun prev (key, _) ->
           if not (Util.Key_range.mem ~lo ~hi key) then
             errf "scan yielded out-of-range key %S" key;
           (match prev with
           | Some p when String.compare p key >= 0 ->
             errf "scan keys not strictly ascending: %S then %S" p key
           | _ -> ());
           Some key)
         None pairs);
    let tracked = Model.Crash_model.tracked_keys st.model in
    List.iter
      (fun key ->
        if Util.Key_range.mem ~lo ~hi key then begin
          let observed = List.assoc_opt key pairs in
          if Model.Crash_model.needs_reconcile st.model ~key then begin
            match Model.Crash_model.resolve_read st.model ~key ~observed with
            | Ok () -> ()
            | Error v ->
              fail
                (Persistence_violation (Format.asprintf "%a" Model.Crash_model.pp_violation v))
          end
          else begin
            let expected = Model.Crash_model.get st.model ~key in
            if observed <> expected then fail (Divergence { key; expected; actual = observed })
          end
        end)
      tracked;
    List.iter
      (fun (key, value) ->
        if not (List.mem key tracked) then
          fail (Divergence { key; expected = None; actual = Some value }))
      pairs
  | Error S.Out_of_service when not (S.in_service st.store) -> ()
  | Error e ->
    if read_tolerable st then ()
    else errf "scan keeps failing with no fault armed: %a" S.pp_error e

(* The composed per-level discipline is structural: no injected fault is
   allowed to break it, so it is never excused by [has_failed]. *)
let check_level_invariants st =
  match S.level_invariants st.store with
  | Ok () -> ()
  | Error msg -> errf "level invariant violated: %s" msg

let full_check st =
  check_level_invariants st;
  List.iter (fun key -> check_get st key) (Model.Crash_model.tracked_keys st.model);
  check_list st

(* Persistence property (section 5): reconcile each tracked key's observed
   post-crash value against the survivors the model allows, and adopt it.
   Keys unreadable under injected failures stay flagged and are resolved by
   their next successful read. *)
let reconcile_after_crash st =
  Model.Crash_model.mark_crashed st.model;
  List.iter
    (fun key ->
      match read_with_retry st key with
      | Ok observed -> (
        match Model.Crash_model.reconcile st.model ~key ~observed with
        | Ok () -> ()
        | Error v ->
          fail (Persistence_violation (Format.asprintf "%a" Model.Crash_model.pp_violation v)))
      | Error e ->
        if read_tolerable st then ()
        else
          fail
            (Persistence_violation
               (Format.asprintf "key %S unreadable after recovery: %a" key S.pp_error e)))
    (Model.Crash_model.tracked_keys st.model)

(* Resource exhaustion is out of scope (section 4.4): an operation
   rejected with [No_space] leaves the model unchanged. Each admitted
   rejection is counted, so the relaxation is visible in the coverage
   table rather than silent. *)
let admit_no_space () = Obs.Coverage.hit "harness.no_space_admitted"

(* Forward progress (section 5): after a clean shutdown every dependency
   returned since the last reboot reports persistent. Dependencies broken
   by injected permanent failures are excused when injection is active. *)
let check_forward_progress st =
  List.iter
    (fun (op, dep) ->
      if not (Dep.is_persistent dep) then
        if st.has_failed && Dep.has_failed dep then ()
        else
          fail
            (Forward_progress_violation
               (Format.asprintf "dependency of %a not persistent after clean shutdown" Op.pp op)))
    st.window_deps

(* No flushes, and every write whose input holds persists whole. *)
let crash_fallback =
  {
    S.flush_index_first = false;
    flush_superblock_first = false;
    persist_probability = 1.0;
    split_pages = false;
  }

let apply st op =
  match op with
  | Op.Get key -> check_get st key
  | Op.Put (key, value) -> (
    match S.put st.store ~key ~value with
    | Ok dep ->
      Model.Crash_model.put st.model ~key ~value ~dep;
      st.window_deps <- (op, dep) :: st.window_deps
    | Error S.No_space -> admit_no_space ()
    | Error S.Out_of_service when not (S.in_service st.store) -> ()
    | Error e -> tolerate_error st e)
  | Op.Delete key -> (
    match S.delete st.store ~key with
    | Ok dep ->
      Model.Crash_model.delete st.model ~key ~dep;
      st.window_deps <- (op, dep) :: st.window_deps
    | Error S.Out_of_service when not (S.in_service st.store) -> ()
    | Error e -> tolerate_error st e)
  | Op.PutBatch ops -> (
    (* Group commit must be observationally the sequential puts: each per-op
       outcome updates the model exactly as the scalar Put case would. *)
    match S.put_batch st.store ops with
    | Ok { S.results; barrier = _ } ->
      List.iter2
        (fun (key, value) result ->
          match result with
          | Ok dep ->
            Model.Crash_model.put st.model ~key ~value ~dep;
            st.window_deps <- (op, dep) :: st.window_deps
          | Error S.No_space -> admit_no_space ()
          | Error e -> tolerate_error st e)
        ops results
    | Error S.Out_of_service when not (S.in_service st.store) -> ()
    | Error e -> tolerate_error st e)
  | Op.DeleteBatch keys -> (
    match S.delete_batch st.store keys with
    | Ok { S.results; barrier = _ } ->
      List.iter2
        (fun key result ->
          match result with
          | Ok dep ->
            Model.Crash_model.delete st.model ~key ~dep;
            st.window_deps <- (op, dep) :: st.window_deps
          | Error e -> tolerate_error st e)
        keys results
    | Error S.Out_of_service when not (S.in_service st.store) -> ()
    | Error e -> tolerate_error st e)
  | Op.List -> check_list st
  | Op.Scan { lo; hi } -> check_scan st ~lo ~hi
  | Op.IndexFlush -> (
    match S.flush_index st.store with
    | Ok _ -> ()
    | Error S.No_space -> admit_no_space ()
    | Error e -> tolerate_error st e)
  | Op.SuperblockFlush -> (
    match S.flush_superblock st.store with Ok _ -> () | Error e -> tolerate_error st e)
  | Op.Compact -> (
    match S.compact st.store with
    | Ok _ -> ()
    | Error S.No_space -> admit_no_space ()
    | Error e -> tolerate_error st e)
  | Op.Reclaim -> (
    match S.reclaim st.store () with
    | Ok _ -> ()
    | Error S.Out_of_service when not (S.in_service st.store) -> ()
    | Error S.No_space -> admit_no_space ()
    | Error e -> tolerate_error st e)
  | Op.Pump n -> ignore (S.pump st.store n)
  | Op.FailDiskOnce extent ->
    st.has_failed <- true;
    Disk.fail_once (S.disk st.store) ~extent
  | Op.FailDiskPermanent extent ->
    st.has_failed <- true;
    st.permanent_damage <- true;
    if not (List.mem extent st.permanent_failures) then
      st.permanent_failures <- extent :: st.permanent_failures;
    Disk.fail_permanently (S.disk st.store) ~extent
  | Op.HealDisk extent ->
    st.permanent_failures <- List.filter (fun e -> e <> extent) st.permanent_failures;
    Disk.heal (S.disk st.store) ~extent
  | Op.RemoveFromService -> (
    match S.remove_from_service st.store with
    | Ok () ->
      (* Removal from service is a graceful shutdown: every dependency
         handed out must be persistent (or excused by injected failures) —
         this is where issue #4's skipped flush shows up. *)
      check_forward_progress st;
      st.window_deps <- []
    | Error S.Out_of_service -> ()
    | Error S.No_space -> admit_no_space ()  (* the shutdown flush; the store stays up *)
    | Error e -> tolerate_error st e)
  | Op.ReturnToService -> (
    let was_in_service = S.in_service st.store in
    match S.return_to_service st.store with
    | Ok () ->
      (* Returning re-reads the disk; under injected failures some staged
         state may not have made it out, so reconcile like a reboot. A
         no-op return (already in service) recovers nothing. *)
      if not was_in_service then begin
        reconcile_after_crash st;
        st.permanent_damage <- st.permanent_failures <> []
      end
    | Error e -> tolerate_error st e)
  | Op.CleanReboot -> (
    match S.clean_shutdown st.store with
    | Error S.No_space -> admit_no_space ()  (* the store keeps running *)
    | Error e ->
      if st.has_failed then begin
        (* Could not shut down cleanly under injected failures: fall back
           to a crash that persists every write it can, so checking can
           continue. *)
        (match S.dirty_reboot st.store ~rng:st.rng crash_fallback with
        | Ok () -> ()
        | Error e -> tolerate_error st e);
        st.window_deps <- [];
        reconcile_after_crash st
      end
      else
        fail
          (Forward_progress_violation
             (Format.asprintf "clean shutdown failed: %a" S.pp_error e))
    | Ok () ->
      check_forward_progress st;
      st.window_deps <- [];
      (match S.recover st.store with
      | Ok () -> ()
      | Error e -> tolerate_error st e);
      reconcile_after_crash st;
      st.permanent_damage <- st.permanent_failures <> [];
      full_check st)
  | Op.DirtyReboot r -> (
    (match st.pre_crash_hook with
    | Some hook -> (
      match hook st.store st.model with
      | Some msg -> fail (Persistence_violation msg)
      | None -> ())
    | None -> ());
    st.window_deps <- [];
    let spec =
      {
        S.flush_index_first = r.Op.flush_index;
        flush_superblock_first = r.Op.flush_superblock;
        persist_probability = r.Op.persist_probability;
        split_pages = r.Op.split_pages;
      }
    in
    match S.dirty_reboot st.store ~rng:st.rng spec with
    | Ok () ->
      reconcile_after_crash st;
      st.permanent_damage <- st.permanent_failures <> []
    | Error e -> tolerate_error st e)

(* A fresh store and model for one sequence. *)
let start config ~pre_crash_hook =
  let store = S.create config.store_config in
  Chunk.Chunk_store.set_uuid_bias (S.chunk_store store) config.uuid_bias;
  {
    store;
    model = Model.Crash_model.create ();
    pre_crash_hook;
    rng = Rng.create config.harness_seed;
    has_failed = false;
    permanent_failures = [];
    permanent_damage = false;
    window_deps = [];
  }

(* [run_core] also hands back the store so callers aggregating metrics
   ([run_par]) can merge its per-instance registry after the run. *)
let run_core config ops =
  let st = start config ~pre_crash_hook:config.pre_crash_hook in
  let step_op st op step =
    apply st op;
    if config.full_check_every > 0 && (step + 1) mod config.full_check_every = 0 then
      full_check st
  in
  let rec go step = function
    | [] -> Passed
    | op :: rest -> (
      match step_op st op step with
      | () -> go (step + 1) rest
      | exception Bug kind ->
        Failed { step; op; kind; trace = Obs.recent ~n:32 (S.obs st.store) })
  in
  (go 0 ops, st.store)

let run config ops = fst (run_core config ops)

let replay config ops =
  let st = start config ~pre_crash_hook:None in
  List.iter (fun op -> try apply st op with Bug _ -> ()) ops;
  st.store

let run_seed_core config ~profile ~bias ~length ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let ops =
    Gen.sequence ~rng ~bias ~profile
      ~page_size:config.store_config.S.disk.Disk.page_size
      ~extent_count:config.store_config.S.disk.Disk.extent_count ~length
  in
  let outcome, store = run_core config ops in
  (ops, outcome, store)

let run_seed config ~profile ~bias ~length ~seed =
  let ops, outcome, _store = run_seed_core config ~profile ~bias ~length ~seed in
  (ops, outcome)

(* {2 Parallel seed sweeps} *)

type sweep = {
  total_ops : int;
  failures : int;
  first_failure : (int * Op.t list * failure) option;
}

let empty_sweep = { total_ops = 0; failures = 0; first_failure = None }

let record_outcome sw ~seed ~ops outcome =
  {
    total_ops = sw.total_ops + List.length ops;
    failures = (sw.failures + match outcome with Failed _ -> 1 | Passed -> 0);
    first_failure =
      (match sw.first_failure, outcome with
      | (Some _ as first), _ | first, Passed -> first
      | None, Failed f -> Some (seed, ops, f));
  }

let run_par ?obs ?(domains = 1) config ~profile ~bias ~length ~seed ~count =
  let sw, reg =
    Par.sweep ~domains ~start:seed ~count
      ~init:(fun () -> (empty_sweep, Option.map (fun _ -> Obs.create ~scope:"sweep" ()) obs))
      ~step:(fun (sw, reg) s ->
        let ops, outcome, store = run_seed_core config ~profile ~bias ~length ~seed:s in
        Option.iter (fun r -> Obs.merge_into ~into:r (S.obs store)) reg;
        (record_outcome sw ~seed:s ~ops outcome, reg))
      ~merge:(fun (a, ra) (b, rb) ->
        (* segments arrive in ascending seed order, so keeping [a]'s first
           failure and merging [rb] last reproduces the sequential
           aggregation exactly (gauges adopt the later value) *)
        Option.iter (fun ra -> Option.iter (fun rb -> Obs.merge_into ~into:ra rb) rb) ra;
        ( {
            total_ops = a.total_ops + b.total_ops;
            failures = a.failures + b.failures;
            first_failure =
              (match a.first_failure with Some _ -> a.first_failure | None -> b.first_failure);
          },
          ra ))
      ()
  in
  Option.iter (fun into -> Option.iter (fun r -> Obs.merge_into ~into r) reg) obs;
  sw
