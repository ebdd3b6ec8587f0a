(* Tests for the superblock: ownership transitions, cadence promises, and
   the dependency discipline that faults #6 and #8 break. *)

open Util

let config = { Disk.extent_count = 8; pages_per_extent = 4; page_size = 32 }
let reserved = [ 0; 1 ]

let make () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:4L disk in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved in
  (disk, sched, sb)

let ok_sb = function
  | Ok v -> v
  | Error e -> Alcotest.failf "superblock error: %a" Superblock.pp_error e

let sched_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "sched error: %a" Io_sched.pp_error e

let owner = Alcotest.testable Superblock.pp_owner Superblock.owner_equal

let test_initial_owners () =
  let _, _, sb = make () in
  Alcotest.(check owner) "reserved" Superblock.Reserved (Superblock.owner sb ~extent:0);
  Alcotest.(check owner) "free" Superblock.Free (Superblock.owner sb ~extent:5);
  Alcotest.(check int) "free count" 6 (List.length (Superblock.free_extents sb))

let test_owner_roundtrip_through_flush_and_recover () =
  let _, sched, sb = make () in
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Superblock.set_owner sb ~extent:5 Superblock.Data ~dep:Dep.trivial;
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  (* Perturb volatile state, then recover. *)
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:Dep.trivial;
  Alcotest.(check bool) "record recovered" true (Superblock.recover sb);
  Alcotest.(check owner) "data restored" Superblock.Data (Superblock.owner sb ~extent:4);
  Alcotest.(check owner) "data restored" Superblock.Data (Superblock.owner sb ~extent:5)

let test_recover_without_record () =
  let _, _, sb = make () in
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Alcotest.(check bool) "no record" false (Superblock.recover sb);
  Alcotest.(check owner) "back to creation state" Superblock.Free (Superblock.owner sb ~extent:4)

let test_cadence_promise () =
  let _, sched, sb = make () in
  let dep = Superblock.note_append sb ~extent:4 in
  Alcotest.(check bool) "dirty" true (Superblock.dirty sb);
  Alcotest.(check bool) "promise unbound" false (Dep.is_persistent dep);
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "promise covers record" true (Dep.is_persistent dep);
  Alcotest.(check bool) "clean" false (Superblock.dirty sb)

let test_promise_spans_flush_boundary () =
  let _, sched, sb = make () in
  let before = Superblock.note_append sb ~extent:4 in
  ignore (ok_sb (Superblock.flush sb));
  let after = Superblock.note_append sb ~extent:5 in
  Alcotest.(check bool) "old promise bound" true (Dep.is_persistent before = false || true);
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "first covered by first record" true (Dep.is_persistent before);
  Alcotest.(check bool) "second still awaiting next flush" false (Dep.is_persistent after);
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "second covered now" true (Dep.is_persistent after)

let test_transition_dep_orders_record () =
  (* A record claiming Free must never persist without the transition's
     dependency (the reset): crash states never show Free + undone reset. *)
  let violations = ref 0 in
  for seed = 0 to 100 do
    let _, sched, sb = make () in
    ignore (sched_ok (Io_sched.append sched ~extent:4 ~data:"live" ~input:Dep.trivial));
    sched_ok (Io_sched.flush sched);
    let reset_dep = sched_ok (Io_sched.reset sched ~extent:4 ~input:Dep.trivial) in
    Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:reset_dep;
    ignore (ok_sb (Superblock.flush sb));
    let rng = Rng.create (Int64.of_int seed) in
    ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:false);
    let recovered = Superblock.recover sb in
    if
      recovered
      && Superblock.owner_equal (Superblock.owner sb ~extent:4) Superblock.Free
      && Disk.epoch (Io_sched.disk sched) ~extent:4 = 0
    then incr violations
  done;
  Alcotest.(check int) "no free-before-reset state" 0 !violations

let test_reallocation_supersedes_pending_frees () =
  (* Two Free transitions of one extent wait on an unbound promise. The
     re-allocation supersedes both, so the next Free, whose dependency
     holds, is what the next record claims. *)
  let _, sched, sb = make () in
  let p = Dep.Promise.create () in
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:(Dep.Promise.dep p);
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:(Dep.Promise.dep p);
  Superblock.set_owner sb ~extent:4 Superblock.Data ~dep:Dep.trivial;
  Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:Dep.trivial;
  ignore (ok_sb (Superblock.flush sb));
  sched_ok (Io_sched.flush sched);
  Alcotest.(check bool) "record recovered" true (Superblock.recover sb);
  Alcotest.(check owner) "free recorded" Superblock.Free (Superblock.owner sb ~extent:4)

let test_f6_breaks_transition_deps_after_reboot () =
  (* With fault #6, the same discipline is violated for the first record
     after a reboot: some crash state shows Free with the reset undone. *)
  Faults.disable_all ();
  let violations = ref 0 in
  for seed = 0 to 200 do
    let _, sched, sb = make () in
    ignore (ok_sb (Superblock.flush sb));
    sched_ok (Io_sched.flush sched);
    (* reboot: recover marks just_rebooted *)
    ignore (Superblock.recover sb);
    Faults.enable Faults.F6_superblock_ownership_dep;
    ignore (sched_ok (Io_sched.append sched ~extent:4 ~data:"live" ~input:Dep.trivial));
    sched_ok (Io_sched.flush sched);
    let reset_dep = sched_ok (Io_sched.reset sched ~extent:4 ~input:Dep.trivial) in
    Superblock.set_owner sb ~extent:4 Superblock.Free ~dep:reset_dep;
    ignore (ok_sb (Superblock.flush sb));
    Faults.disable Faults.F6_superblock_ownership_dep;
    let rng = Rng.create (Int64.of_int seed) in
    ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:false);
    let recovered = Superblock.recover sb in
    if
      recovered
      && Superblock.owner_equal (Superblock.owner sb ~extent:4) Superblock.Free
      && Disk.epoch (Io_sched.disk sched) ~extent:4 = 0
      && Disk.hard_ptr (Io_sched.disk sched) ~extent:4 > 0
    then incr violations
  done;
  Alcotest.(check bool) "fault #6 reachable" true (!violations > 0)

let test_f8_drops_pointer_promise () =
  Faults.disable_all ();
  Faults.enable Faults.F8_missing_pointer_dep;
  let _, _, sb = make () in
  let dep = Superblock.note_append sb ~extent:4 in
  Faults.disable Faults.F8_missing_pointer_dep;
  (* The buggy dependency is trivially persistent: nothing ties the append
     to the covering superblock record. *)
  Alcotest.(check bool) "trivial dep" true (Dep.is_persistent dep);
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F8_missing_pointer_dep > 0)

(* {1 Record chains} *)

(* Sixteen extents of 384 B: a checkpoint takes 167 B of a log extent and a
   delta 23 B plus 13 B per changed extent, so a case crosses several
   switches. *)
let chain_config = { Disk.extent_count = 16; pages_per_extent = 12; page_size = 32 }

(* A random workload on a fresh superblock, with the test's own full-table
   rendering: per extent the owner tag (a Free transition whose dependency
   is not yet persistent rendered as Data), epoch and soft pointer. *)
type workload = {
  sched : Io_sched.t;
  sb : Superblock.t;
  rng : Rng.t;
  free_deps : Dep.t list array;  (** Free-transition deps since each extent last left Free *)
  mutable promises : Dep.Promise.promise list;
}

let workload seed =
  let disk = Disk.create chain_config in
  let sched = Io_sched.create ~seed:4L disk in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved in
  {
    sched;
    sb;
    rng = Rng.of_int seed;
    free_deps = Array.make chain_config.Disk.extent_count [];
    promises = [];
  }

let tag w i =
  match Superblock.owner w.sb ~extent:i with
  | Superblock.Reserved -> 0
  | Superblock.Free ->
    if List.exists (fun d -> not (Dep.is_persistent d)) w.free_deps.(i) then 2 else 1
  | Superblock.Data -> 2

let rendering w =
  Array.init chain_config.Disk.extent_count (fun i ->
      (tag w i, Io_sched.epoch w.sched ~extent:i, Io_sched.soft_ptr w.sched ~extent:i))

(* One random owner change, data append or promise bind. *)
let step w =
  let n = chain_config.Disk.extent_count in
  let extent = 2 + Rng.int w.rng (n - 2) in
  match Rng.int w.rng 4 with
  | 0 | 1 ->
    let dep =
      match Rng.int w.rng 3 with
      | 0 -> Dep.trivial
      | 1 ->
        let p = Dep.Promise.create () in
        w.promises <- p :: w.promises;
        Dep.Promise.dep p
      | _ -> sched_ok (Io_sched.reset w.sched ~extent ~input:Dep.trivial)
    in
    if Rng.bool w.rng then begin
      Superblock.set_owner w.sb ~extent Superblock.Free ~dep;
      w.free_deps.(extent) <- dep :: w.free_deps.(extent)
    end
    else begin
      Superblock.set_owner w.sb ~extent Superblock.Data ~dep;
      w.free_deps.(extent) <- []
    end
  | 2 ->
    if Io_sched.capacity_left w.sched ~extent >= 8 then
      ignore (sched_ok (Io_sched.append w.sched ~extent ~data:"12345678" ~input:Dep.trivial))
  | _ -> (
    match List.filter (fun p -> not (Dep.Promise.is_bound p)) w.promises with
    | [] -> ()
    | ps -> Dep.Promise.bind (Rng.pick_list w.rng ps) Dep.trivial)

(* A recovery drops every pending Free transition. *)
let recovered w =
  ignore (Superblock.recover w.sb);
  Array.fill w.free_deps 0 (Array.length w.free_deps) []

let tag_of_owner = function Superblock.Reserved -> 0 | Superblock.Free -> 1 | Superblock.Data -> 2

(* The triples a second roll on the superblock's extents replays from the
   chain recovery would read. *)
let replayed w =
  let roll = Logroll.create w.sched ~extents:(0, 1) ~name:"reader" in
  Result.map
    (Array.map (fun { Superblock.owner; epoch; soft_ptr } -> (tag_of_owner owner, epoch, soft_ptr)))
    (Superblock.replay ~extents:chain_config.Disk.extent_count
       (List.map snd (Logroll.recover roll)))

(* Every third step flushes a record. A second roll on the superblock's
   extents reads back the chain recovery would replay; replayed, it must
   equal the rendering taken just before the flush on every extent,
   pointers and epochs included. One recovery mid-case makes the next
   record a checkpoint in the middle of a log extent. *)
let prop_record_bytes =
  QCheck.Test.make ~name:"records match the reference rendering" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let w = workload seed in
      for i = 1 to 90 do
        if i = 45 then recovered w;
        if i mod 3 <> 0 then step w
        else begin
          let expected = rendering w in
          ignore (ok_sb (Superblock.flush w.sb));
          sched_ok (Io_sched.flush w.sched);
          match replayed w with
          | Error e ->
            QCheck.Test.fail_reportf "step %d: chain does not replay: %a" i Codec.pp_error e
          | Ok got ->
            Array.iteri
              (fun extent (t, epoch, ptr) ->
                let t', epoch', ptr' = got.(extent) in
                if (t', epoch', ptr') <> (t, epoch, ptr) then
                  QCheck.Test.fail_reportf
                    "step %d, extent %d: replayed (%d, %d, %d), reference (%d, %d, %d)" i extent t'
                    epoch' ptr' t epoch ptr)
              expected
        end
      done;
      let switches =
        Obs.counter_value ~labels:[ ("roll", "superblock") ] (Io_sched.obs w.sched)
          "logroll.switch"
      in
      if switches < 2 then QCheck.Test.fail_reportf "only %d log extent switches" switches;
      true)

(* Random steps and flushes with partial writeback, then a crash that may
   tear pages, then recovery, three rounds per case. The recovered owners
   must be the tags of the newest record whose dependency persisted (the
   creation state if none did), and the chain on disk must replay to that
   record's whole rendering: a record written after a recovery must not
   lean on records the crash dropped. *)
let prop_crash_recovers_newest =
  QCheck.Test.make ~name:"recovery adopts the newest persisted record" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let w = workload seed in
      let n = chain_config.Disk.extent_count in
      let creation = Array.init n (fun i -> if i < 2 then 0 else 1) in
      let records = ref [] in
      for round = 1 to 3 do
        for _ = 1 to 30 do
          match Rng.int w.rng 4 with
          | 0 ->
            let expected = rendering w in
            let dep = ok_sb (Superblock.flush w.sb) in
            records := (dep, expected) :: !records
          | 1 -> ignore (Io_sched.pump ~max_ios:(Rng.int w.rng 4) w.sched)
          | _ -> step w
        done;
        let persist_probability = Rng.float w.rng 1.0 in
        ignore (Io_sched.crash w.sched ~rng:w.rng ~persist_probability ~split_pages:true);
        recovered w;
        let newest = List.find_opt (fun (dep, _) -> Dep.is_persistent dep) !records in
        let tags =
          match newest with
          | Some (_, r) -> Array.map (fun (t, _, _) -> t) r
          | None -> creation
        in
        Array.iteri
          (fun i t ->
            let got = tag_of_owner (Superblock.owner w.sb ~extent:i) in
            if got <> t then
              QCheck.Test.fail_reportf "round %d, extent %d: recovered %d, newest persisted %d"
                round i got t)
          tags;
        match (newest, replayed w) with
        | None, Error _ -> ()
        | Some (_, r), Ok got when got = r -> ()
        | _ ->
          QCheck.Test.fail_reportf "round %d: the chain on disk replays to another rendering"
            round
      done;
      true)

(* {1 Decoder totality} *)

(* The test's own encoder: a kind byte, then a u32 count and the entries;
   a delta entry starts with its u32 index. *)
let encode_payload ~kind entries =
  let b = Buffer.create 64 in
  Buffer.add_uint8 b kind;
  Buffer.add_int32_le b (Int32.of_int (List.length entries));
  List.iter
    (fun (index, tag, epoch, ptr) ->
      if kind = 1 then Buffer.add_int32_le b (Int32.of_int index);
      Buffer.add_uint8 b tag;
      Buffer.add_int32_le b (Int32.of_int epoch);
      Buffer.add_int32_le b (Int32.of_int ptr))
    entries;
  Buffer.contents b

let extents = 8
let checkpoint = encode_payload ~kind:0 (List.init extents (fun i -> (i, i mod 3, i, 64 * i)))
let delta = encode_payload ~kind:1 [ (1, 2, 3, 64); (4, 1, 1, 0); (7, 0, 0, 128) ]
let empty_delta = encode_payload ~kind:1 []
let valid = [ checkpoint; delta; empty_delta ]

(* Replaying a payload alone and behind a checkpoint (so a decoded delta
   is applied) must answer, never raise; the answer is the latter. *)
let answers payload =
  match
    (Superblock.replay ~extents [ payload ], Superblock.replay ~extents [ checkpoint; payload ])
  with
  | _, result -> Ok result
  | exception e -> Error (Printexc.to_string e)

let check_total payload =
  match answers payload with
  | Ok r -> r
  | Error e -> Alcotest.failf "decoder raised %s on %S" e payload

let prop_arbitrary =
  QCheck.Test.make ~name:"record decoder total on arbitrary bytes" ~count:3000
    QCheck.(pair (int_bound 2) (string_of_size Gen.(0 -- 80)))
    (fun (kind, body) ->
      (match answers body with Ok _ -> () | Error e -> QCheck.Test.fail_reportf "raised %s" e);
      (* Behind a valid kind byte and a small count, the entry decoders run. *)
      let framed = String.make 1 (Char.chr kind) ^ "\003\000\000\000" ^ body in
      (match answers framed with Ok _ -> () | Error e -> QCheck.Test.fail_reportf "raised %s" e);
      true)

let test_valid_records () =
  List.iter
    (fun p ->
      match Superblock.replay ~extents [ checkpoint; p ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "valid record %S rejected: %a" p Codec.pp_error e)
    valid;
  (match Superblock.replay ~extents [ delta ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a chain that opens with a delta replayed");
  match Superblock.replay ~extents [ checkpoint; delta; empty_delta ] with
  | Error e -> Alcotest.failf "chain rejected: %a" Codec.pp_error e
  | Ok entries ->
    let e = entries.(4) in
    Alcotest.(check (triple int int int)) "delta patched extent 4" (1, 1, 0)
      (tag_of_owner e.Superblock.owner, e.Superblock.epoch, e.Superblock.soft_ptr);
    let e = entries.(5) in
    Alcotest.(check (triple int int int)) "checkpoint kept extent 5" (2, 5, 320)
      (tag_of_owner e.Superblock.owner, e.Superblock.epoch, e.Superblock.soft_ptr)

(* Every cut of a valid record is rejected; every byte flip answers. *)
let test_cuts_and_flips () =
  List.iter
    (fun p ->
      for cut = 0 to String.length p - 1 do
        match check_total (String.sub p 0 cut) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "cut %d of %S accepted" cut p
      done;
      for at = 0 to String.length p - 1 do
        for mask = 1 to 255 do
          let b = Bytes.of_string p in
          Bytes.set_uint8 b at (Bytes.get_uint8 b at lxor mask);
          ignore (check_total (Bytes.to_string b))
        done
      done)
    valid

(* Count fields and delta index fields overwritten with -1, 0, n, n+1 and
   2^31: every answer is total, and an index outside [0, n) or a count
   other than n in a checkpoint is rejected. *)
let test_counts_and_indices () =
  let values = [ -1; 0; extents; extents + 1; 1 lsl 31 ] in
  let overwrite p off v =
    let b = Bytes.of_string p in
    Bytes.set_int32_le b off (Int32.of_int v);
    Bytes.to_string b
  in
  List.iter
    (fun v ->
      (match check_total (overwrite checkpoint 1 v) with
      | Ok _ when v <> extents -> Alcotest.failf "checkpoint count %d accepted" v
      | Ok _ | Error _ -> ());
      List.iter (fun p -> ignore (check_total (overwrite p 1 v))) [ delta; empty_delta ];
      for j = 0 to 2 do
        match check_total (overwrite delta (5 + (13 * j)) v) with
        | Ok _ when v < 0 || v >= extents ->
          Alcotest.failf "delta index %d at entry %d accepted" v j
        | Ok _ | Error _ -> ()
      done)
    values

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "superblock"
    [
      ( "superblock",
        [
          Alcotest.test_case "initial owners" `Quick test_initial_owners;
          Alcotest.test_case "owner roundtrip" `Quick test_owner_roundtrip_through_flush_and_recover;
          Alcotest.test_case "recover without record" `Quick test_recover_without_record;
          Alcotest.test_case "cadence promise" `Quick test_cadence_promise;
          Alcotest.test_case "promise spans flush boundary" `Quick test_promise_spans_flush_boundary;
          Alcotest.test_case "transition dep orders record" `Quick
            test_transition_dep_orders_record;
          Alcotest.test_case "re-allocation supersedes pending frees" `Quick
            test_reallocation_supersedes_pending_frees;
          QCheck_alcotest.to_alcotest prop_record_bytes;
          QCheck_alcotest.to_alcotest prop_crash_recovers_newest;
        ] );
      ( "format",
        [
          Alcotest.test_case "valid records decode and replay" `Quick test_valid_records;
          Alcotest.test_case "every cut rejected, every flip answers" `Quick test_cuts_and_flips;
          Alcotest.test_case "counts and indices overwritten" `Quick test_counts_and_indices;
          QCheck_alcotest.to_alcotest prop_arbitrary;
        ] );
      ( "faults",
        [
          Alcotest.test_case "#6 breaks transition deps after reboot" `Quick
            test_f6_breaks_transition_deps_after_reboot;
          Alcotest.test_case "#8 drops pointer promise" `Quick test_f8_drops_pointer_promise;
        ] );
    ]
