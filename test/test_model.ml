(* Tests for the reference models themselves: the hash-map model, the
   crash extension's allowed-survivor semantics, the chunk model's
   uniqueness tracking, and the model-bug fault sites #9 and #15. *)

open Util

let test_kv_model_basics () =
  let m = Model.Kv_model.create () in
  Model.Kv_model.put m ~key:"a" ~value:"1";
  Model.Kv_model.put m ~key:"b" ~value:"2";
  Model.Kv_model.put m ~key:"a" ~value:"3";
  Alcotest.(check (option string)) "overwrite" (Some "3") (Model.Kv_model.get m ~key:"a");
  Model.Kv_model.delete m ~key:"b";
  Alcotest.(check (list string)) "list" [ "a" ] (Model.Kv_model.list m);
  Alcotest.(check bool) "mem" true (Model.Kv_model.mem m ~key:"a");
  let c = Model.Kv_model.copy m in
  Model.Kv_model.put m ~key:"z" ~value:"9";
  Alcotest.(check bool) "copy isolated" false (Model.Kv_model.equal m c)

(* A dependency that reports persistent/pending as we choose, via the real
   scheduler. *)
let sched_for_deps () =
  let disk = Disk.create { Disk.extent_count = 2; pages_per_extent = 8; page_size = 16 } in
  Io_sched.create ~seed:1L disk

let staged_dep sched =
  match Io_sched.append sched ~extent:0 ~data:"x" ~input:Dep.trivial with
  | Ok d -> d
  | Error _ -> Alcotest.fail "append failed"

let test_crash_model_allowed_survivors () =
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  let d1 = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"v1" ~dep:d1;
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (* v1 persistent; v2 staged but not persistent *)
  let d2 = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"v2" ~dep:d2;
  let allowed = Model.Crash_model.allowed_after_crash m ~key:"k" in
  Alcotest.(check int) "two survivors" 2 (List.length allowed);
  Alcotest.(check bool) "v2 allowed" true (List.mem (Some "v2") allowed);
  Alcotest.(check bool) "v1 allowed" true (List.mem (Some "v1") allowed);
  Alcotest.(check bool) "absent not allowed" false (List.mem None allowed)

let test_crash_model_nothing_persistent () =
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  let d = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"v1" ~dep:d;
  let allowed = Model.Crash_model.allowed_after_crash m ~key:"k" in
  Alcotest.(check bool) "absent allowed" true (List.mem None allowed);
  Alcotest.(check bool) "v1 allowed" true (List.mem (Some "v1") allowed)

let test_crash_model_persistent_pins_survivor () =
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  let d1 = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"old" ~dep:d1;
  let d2 = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"new" ~dep:d2;
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (* Both persistent: only the newest survives. *)
  let allowed = Model.Crash_model.allowed_after_crash m ~key:"k" in
  Alcotest.(check bool) "only newest" true (allowed = [ Some "new" ])

let test_crash_model_reconcile () =
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  let d = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"v1" ~dep:d;
  (match Model.Crash_model.reconcile m ~key:"k" ~observed:None with
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected violation: %a" Model.Crash_model.pp_violation v);
  Alcotest.(check (option string)) "baseline adopted" None (Model.Crash_model.get m ~key:"k");
  (* Observing a value that was never staged is a violation. *)
  Model.Crash_model.put m ~key:"k" ~value:"v2" ~dep:(staged_dep sched);
  match Model.Crash_model.reconcile m ~key:"k" ~observed:(Some "bogus") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bogus survivor must be a violation"

let test_crash_model_delete_tracked () =
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  let d1 = staged_dep sched in
  Model.Crash_model.put m ~key:"k" ~value:"v" ~dep:d1;
  (match Io_sched.flush sched with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (match Model.Crash_model.reconcile m ~key:"k" ~observed:(Some "v") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "v must be allowed");
  let d2 = staged_dep sched in
  Model.Crash_model.delete m ~key:"k" ~dep:d2;
  let allowed = Model.Crash_model.allowed_after_crash m ~key:"k" in
  Alcotest.(check bool) "deletion may be lost" true (List.mem (Some "v") allowed);
  Alcotest.(check bool) "deletion may have landed" true (List.mem None allowed);
  Alcotest.(check (list string)) "crash-free list hides deleted" []
    (Model.Crash_model.list m)

let test_f9_model_reconcile_bug () =
  Faults.disable_all ();
  let sched = sched_for_deps () in
  let m = Model.Crash_model.create () in
  Model.Crash_model.put m ~key:"k" ~value:"v1" ~dep:(staged_dep sched);
  Faults.enable Faults.F9_model_crash_reconcile;
  (match Model.Crash_model.reconcile m ~key:"k" ~observed:None with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reconcile accepts");
  Faults.disable Faults.F9_model_crash_reconcile;
  (* The buggy model kept v1 even though the store observed nothing. *)
  Alcotest.(check (option string)) "model diverges" (Some "v1") (Model.Crash_model.get m ~key:"k");
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F9_model_crash_reconcile > 0)

let locator i epoch = { Chunk.Locator.extent = 4; epoch; off = i * 32; frame_len = 10 }

let test_chunk_model_tracks_and_detects_reuse () =
  let m = Model.Chunk_model.create () in
  (match Model.Chunk_model.track m ~locator:(locator 0 0) ~payload:"a" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fresh locator");
  Alcotest.(check (option string)) "expected" (Some "a")
    (Model.Chunk_model.expected m ~locator:(locator 0 0));
  (match Model.Chunk_model.track m ~locator:(locator 0 0) ~payload:"b" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "reused locator must clash");
  Model.Chunk_model.drop m ~locator:(locator 0 0);
  Alcotest.(check (option string)) "dropped" None
    (Model.Chunk_model.expected m ~locator:(locator 0 0))

let test_chunk_model_epoch_distinguishes () =
  Faults.disable_all ();
  let m = Model.Chunk_model.create () in
  ignore (Model.Chunk_model.track m ~locator:(locator 0 0) ~payload:"old");
  (match Model.Chunk_model.track m ~locator:(locator 0 1) ~payload:"new" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "new epoch is a fresh locator");
  Alcotest.(check (option string)) "old epoch intact" (Some "old")
    (Model.Chunk_model.expected m ~locator:(locator 0 0))

let test_f15_model_locator_reuse () =
  Faults.disable_all ();
  Faults.enable Faults.F15_model_locator_reuse;
  let m = Model.Chunk_model.create () in
  ignore (Model.Chunk_model.track m ~locator:(locator 0 0) ~payload:"old");
  ignore (Model.Chunk_model.track m ~locator:(locator 0 1) ~payload:"new");
  (* The buggy model conflated the two epochs: the old slot was clobbered. *)
  let got = Model.Chunk_model.expected m ~locator:(locator 0 0) in
  Faults.disable Faults.F15_model_locator_reuse;
  Alcotest.(check (option string)) "old epoch clobbered" (Some "new") got;
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F15_model_locator_reuse > 0)

let test_index_mock_implements_interface () =
  let disk = Disk.create { Disk.extent_count = 6; pages_per_extent = 8; page_size = 32 } in
  let sched = Io_sched.create ~seed:1L disk in
  let cache = Cache.create sched in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved:[ 0; 1; 2; 3 ] in
  let cs = Chunk.Chunk_store.create sched ~cache ~superblock:sb ~rng:(Rng.create 2L) in
  let m = Model.Index_mock.create cs ~metadata_extents:(2, 3) in
  ignore (Model.Index_mock.put m ~key:"k" ~locators:[ locator 1 0 ] ~value_dep:Dep.trivial);
  (match Model.Index_mock.get m ~key:"k" with
  | Ok (Some [ _ ]) -> ()
  | _ -> Alcotest.fail "mock get");
  Alcotest.(check (list string)) "keys" [ "k" ]
    (List.map fst (Result.get_ok (Model.Index_mock.scan m ~lo:None ~hi:None)));
  ignore (Model.Index_mock.delete m ~key:"k");
  match Model.Index_mock.get m ~key:"k" with
  | Ok None -> ()
  | _ -> Alcotest.fail "mock delete"

(* Model verification (paper S3.2): "the reduced complexity of the
   reference model makes it possible to verify desirable properties of the
   model itself". The paper experimented with Prusti proofs; here they are
   executable properties. *)

type model_op = MPut of string * string | MDelete of string

let model_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> MPut (k, v)) (oneofl [ "a"; "b"; "c" ]) (string_size (0 -- 12));
        map (fun k -> MDelete k) (oneofl [ "a"; "b"; "c" ]);
      ])

(* "the model removes a key-value mapping if and only if it receives a
   delete operation for that key" — the exact property S3.2 proposes. *)
let prop_kv_mapping_iff =
  QCheck.Test.make ~name:"kv model: mapping present iff last op was a put" ~count:500
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) model_op_gen))
    (fun ops ->
      let m = Model.Kv_model.create () in
      List.iter
        (fun op ->
          match op with
          | MPut (key, value) -> Model.Kv_model.put m ~key ~value
          | MDelete key -> Model.Kv_model.delete m ~key)
        ops;
      List.for_all
        (fun key ->
          let last =
            List.fold_left
              (fun acc op ->
                match op with
                | MPut (k, v) when k = key -> Some (Some v)
                | MDelete k when k = key -> Some None
                | _ -> acc)
              None ops
          in
          match last with
          | None -> Model.Kv_model.get m ~key = None
          | Some expected -> Model.Kv_model.get m ~key = expected)
        [ "a"; "b"; "c" ])

(* Crash model validity: crash-free semantics equal the plain model, and
   the allowed-survivor list is newest-first with the current value at its
   head. *)
let prop_crash_model_refines_kv =
  QCheck.Test.make ~name:"crash model: crash-free view equals kv model" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) model_op_gen))
    (fun ops ->
      let kv = Model.Kv_model.create () in
      let cm = Model.Crash_model.create () in
      List.iter
        (fun op ->
          match op with
          | MPut (key, value) ->
            Model.Kv_model.put kv ~key ~value;
            Model.Crash_model.put cm ~key ~value ~dep:Dep.trivial
          | MDelete key ->
            Model.Kv_model.delete kv ~key;
            Model.Crash_model.delete cm ~key ~dep:Dep.trivial)
        ops;
      Model.Kv_model.list kv = Model.Crash_model.list cm
      && List.for_all
           (fun key -> Model.Kv_model.get kv ~key = Model.Crash_model.get cm ~key)
           [ "a"; "b"; "c" ])

let prop_allowed_head_is_current =
  QCheck.Test.make ~name:"crash model: allowed survivors start at current" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 20) model_op_gen))
    (fun ops ->
      let cm = Model.Crash_model.create () in
      List.iter
        (fun op ->
          match op with
          | MPut (key, value) -> Model.Crash_model.put cm ~key ~value ~dep:Dep.trivial
          | MDelete key -> Model.Crash_model.delete cm ~key ~dep:Dep.trivial)
        ops;
      List.for_all
        (fun key ->
          match Model.Crash_model.allowed_after_crash cm ~key with
          | head :: _ -> head = Model.Crash_model.get cm ~key
          | [] -> false)
        [ "a"; "b"; "c" ])

(* With trivially persistent deps nothing may be lost: the only survivor
   is the current value. *)
let prop_persistent_history_pins =
  QCheck.Test.make ~name:"crash model: persistent deps pin the survivor" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 20) model_op_gen))
    (fun ops ->
      let cm = Model.Crash_model.create () in
      List.iter
        (fun op ->
          match op with
          | MPut (key, value) -> Model.Crash_model.put cm ~key ~value ~dep:Dep.trivial
          | MDelete key -> Model.Crash_model.delete cm ~key ~dep:Dep.trivial)
        ops;
      List.for_all
        (fun key ->
          match Model.Crash_model.allowed_after_crash cm ~key with
          | [ only ] -> only = Model.Crash_model.get cm ~key
          | [] -> false
          | _ :: _ ->
            (* more than one survivor is only allowed for untouched keys *)
            Model.Crash_model.tracked_keys cm |> List.mem key |> not)
        [ "a"; "b"; "c" ])

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "model"
    [
      ("kv", [ Alcotest.test_case "basics" `Quick test_kv_model_basics ]);
      ( "crash extension",
        [
          Alcotest.test_case "allowed survivors" `Quick test_crash_model_allowed_survivors;
          Alcotest.test_case "nothing persistent" `Quick test_crash_model_nothing_persistent;
          Alcotest.test_case "persistent pins survivor" `Quick
            test_crash_model_persistent_pins_survivor;
          Alcotest.test_case "reconcile" `Quick test_crash_model_reconcile;
          Alcotest.test_case "delete tracked" `Quick test_crash_model_delete_tracked;
          Alcotest.test_case "#9 reconcile bug" `Quick test_f9_model_reconcile_bug;
        ] );
      ( "chunk model",
        [
          Alcotest.test_case "tracks and detects reuse" `Quick
            test_chunk_model_tracks_and_detects_reuse;
          Alcotest.test_case "epoch distinguishes" `Quick test_chunk_model_epoch_distinguishes;
          Alcotest.test_case "#15 locator reuse" `Quick test_f15_model_locator_reuse;
        ] );
      ( "index mock",
        [ Alcotest.test_case "implements interface" `Quick test_index_mock_implements_interface ] );
      ( "model verification (S3.2)",
        [
          QCheck_alcotest.to_alcotest prop_kv_mapping_iff;
          QCheck_alcotest.to_alcotest prop_crash_model_refines_kv;
          QCheck_alcotest.to_alcotest prop_allowed_head_is_current;
          QCheck_alcotest.to_alcotest prop_persistent_history_pins;
        ] );
    ]
