(* Integration tests for the full ShardStore node: request plane,
   maintenance, crash/recovery, control plane, and the mocked-index store
   (the paper's section 3.2 model-as-mock reuse). *)

open Util
module S = Store.Default
module Mocked = Store.Make (Model.Index_mock)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "store error: %a" S.pp_error e

let make () = S.create S.test_config

let put s k v = ignore (ok (S.put s ~key:k ~value:v))
let get s k = ok (S.get s ~key:k)

let test_put_get_delete () =
  let s = make () in
  put s "alpha" "one";
  put s "beta" "two";
  Alcotest.(check (option string)) "get alpha" (Some "one") (get s "alpha");
  Alcotest.(check (option string)) "get beta" (Some "two") (get s "beta");
  Alcotest.(check (option string)) "get missing" None (get s "gamma");
  ignore (ok (S.delete s ~key:"alpha"));
  Alcotest.(check (option string)) "deleted" None (get s "alpha");
  Alcotest.(check (list string)) "list" [ "beta" ] (ok (S.list s))

let test_overwrite () =
  let s = make () in
  put s "k" "first";
  put s "k" "second";
  Alcotest.(check (option string)) "latest wins" (Some "second") (get s "k")

let test_empty_value () =
  let s = make () in
  put s "empty" "";
  Alcotest.(check (option string)) "empty value" (Some "") (get s "empty")

let test_multi_chunk_value () =
  let s = make () in
  (* test_config max_chunk_payload = 96; value of 250 bytes -> 3 chunks *)
  let value = String.init 250 (fun i -> Char.chr (33 + (i mod 90))) in
  put s "big" value;
  Alcotest.(check (option string)) "multi-chunk roundtrip" (Some value) (get s "big")

let test_put_batch_matches_sequential () =
  let batch = List.init 10 (fun i -> (Printf.sprintf "bk%d" i, Printf.sprintf "value-%d" i)) in
  let sb = make () in
  (match S.put_batch sb batch with
  | Ok { S.results; barrier = _ } ->
    Alcotest.(check int) "one result per op" (List.length batch) (List.length results);
    List.iter
      (function Ok _ -> () | Error e -> Alcotest.failf "batch op: %a" S.pp_error e)
      results
  | Error e -> Alcotest.failf "put_batch: %a" S.pp_error e);
  (* Same workload through the scalar path: observable state must agree. *)
  let ss = make () in
  List.iter (fun (k, v) -> put ss k v) batch;
  List.iter
    (fun (k, _) ->
      Alcotest.(check (option string)) ("batch = sequential for " ^ k) (get ss k) (get sb k))
    batch;
  Alcotest.(check (list string)) "same key set" (ok (S.list ss)) (ok (S.list sb))

let test_put_batch_last_write_wins () =
  let s = make () in
  (match S.put_batch s [ ("dup", "first"); ("other", "x"); ("dup", "second") ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "put_batch: %a" S.pp_error e);
  Alcotest.(check (option string)) "in-batch overwrite, last wins" (Some "second") (get s "dup");
  Alcotest.(check (option string)) "other key intact" (Some "x") (get s "other")

let test_put_batch_group_commit_amortizes () =
  let s = make () in
  let obs = S.obs s in
  let appends_before = Obs.counter_value obs "iosched.append" in
  let n = 12 in
  (match S.put_batch s (List.init n (fun i -> (Printf.sprintf "g%d" i, String.make 20 'x'))) with
  | Ok { S.results; _ } ->
    List.iter
      (function Ok _ -> () | Error e -> Alcotest.failf "batch op: %a" S.pp_error e)
      results
  | Error e -> Alcotest.failf "put_batch: %a" S.pp_error e);
  let appends = Obs.counter_value obs "iosched.append" - appends_before in
  Alcotest.(check bool)
    (Printf.sprintf "group commit: %d appends for %d puts" appends n)
    true (appends < n);
  Alcotest.(check bool) "took the grouped chunk path" true
    (Obs.counter_value obs "chunk.batch_group" >= 1);
  Alcotest.(check int) "store.put_batch counted" 1 (Obs.counter_value obs "store.put_batch")

let test_put_batch_barrier () =
  let s = make () in
  match S.put_batch s [ ("a", "1"); ("b", "2"); ("c", "3") ] with
  | Error e -> Alcotest.failf "put_batch: %a" S.pp_error e
  | Ok { S.results; barrier } ->
    Alcotest.(check bool) "barrier volatile at first" false (Dep.is_persistent barrier);
    ignore (ok (S.flush_index s));
    ignore (ok (S.flush_superblock s));
    ignore (S.pump s 1000);
    Alcotest.(check bool) "barrier persistent after flush+pump" true (Dep.is_persistent barrier);
    List.iter
      (function
        | Ok d -> Alcotest.(check bool) "per-op dep persistent" true (Dep.is_persistent d)
        | Error e -> Alcotest.failf "batch op: %a" S.pp_error e)
      results

let test_delete_batch () =
  let s = make () in
  List.iter (fun k -> put s k ("v-" ^ k)) [ "a"; "b"; "c"; "d" ];
  (match S.delete_batch s [ "a"; "c"; "missing" ] with
  | Ok { S.results; _ } ->
    Alcotest.(check int) "one result per key" 3 (List.length results);
    List.iter
      (function Ok _ -> () | Error e -> Alcotest.failf "batch delete: %a" S.pp_error e)
      results
  | Error e -> Alcotest.failf "delete_batch: %a" S.pp_error e);
  Alcotest.(check (option string)) "a deleted" None (get s "a");
  Alcotest.(check (option string)) "c deleted" None (get s "c");
  Alcotest.(check (list string)) "survivors" [ "b"; "d" ] (ok (S.list s))

let test_batch_out_of_service () =
  let s = make () in
  ignore (ok (S.remove_from_service s));
  (match S.put_batch s [ ("k", "v") ] with
  | Error S.Out_of_service -> ()
  | _ -> Alcotest.fail "put_batch must reject out of service");
  match S.delete_batch s [ "k" ] with
  | Error S.Out_of_service -> ()
  | _ -> Alcotest.fail "delete_batch must reject out of service"

let test_clean_shutdown_forward_progress () =
  let s = make () in
  let deps = List.map (fun i -> ok (S.put s ~key:(string_of_int i) ~value:"v")) [ 1; 2; 3 ] in
  let d = ok (S.delete s ~key:"1") in
  ignore (ok (S.clean_shutdown s));
  List.iter
    (fun dep -> Alcotest.(check bool) "dep persistent after clean shutdown" true (Dep.is_persistent dep))
    (d :: deps)

let test_survives_clean_reboot () =
  let s = make () in
  put s "durable" "value";
  ignore (ok (S.clean_shutdown s));
  let s2 = S.of_disk S.test_config (S.disk s) in
  ignore (ok (S.recover s2));
  Alcotest.(check (option string)) "survives" (Some "value") (ok (S.get s2 ~key:"durable"))

let test_dirty_reboot_keeps_persistent_data () =
  let s = make () in
  let dep = ok (S.put s ~key:"k" ~value:"v") in
  ignore (ok (S.flush_index s));
  ignore (ok (S.flush_superblock s));
  ignore (S.pump s 1000);
  Alcotest.(check bool) "persistent before crash" true (Dep.is_persistent dep);
  let rng = Rng.create 77L in
  ignore
    (ok
       (S.dirty_reboot s ~rng
          {
            S.flush_index_first = false;
            flush_superblock_first = false;
            persist_probability = 0.0;
            split_pages = false;
          }));
  Alcotest.(check (option string)) "persistent data survives" (Some "v") (get s "k")

let test_dirty_reboot_may_lose_volatile_data () =
  let s = make () in
  let dep = ok (S.put s ~key:"k" ~value:"v") in
  Alcotest.(check bool) "not persistent" false (Dep.is_persistent dep);
  let rng = Rng.create 78L in
  ignore
    (ok
       (S.dirty_reboot s ~rng
          {
            S.flush_index_first = false;
            flush_superblock_first = false;
            persist_probability = 0.0;
            split_pages = false;
          }));
  Alcotest.(check (option string)) "unflushed put lost" None (get s "k")

let test_reclaim_recovers_space () =
  let s = make () in
  (* Fill with garbage: overwrite the same key repeatedly. *)
  for i = 0 to 11 do
    put s "churn" (String.make 90 (Char.chr (65 + i)))
  done;
  ignore (ok (S.flush_index s));
  let candidates = S.reclaimable_extents s in
  Alcotest.(check bool) "garbage exists" true (candidates <> []);
  (match ok (S.reclaim s ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "reclamation should have work");
  Alcotest.(check (option string))
    "latest value intact" (Some (String.make 90 'L'))
    (get s "churn")

let test_reclaim_preserves_all_data () =
  let s = make () in
  let keys = List.init 6 (fun i -> Printf.sprintf "key%d" i) in
  List.iteri (fun i k -> put s k (String.make 50 (Char.chr (97 + i)))) keys;
  List.iter (fun k -> put s k "rewritten") keys;
  ignore (ok (S.flush_index s));
  let rec drain n =
    if n > 0 then
      match ok (S.reclaim s ()) with
      | Some _ -> drain (n - 1)
      | None -> ()
  in
  drain 10;
  List.iter
    (fun k -> Alcotest.(check (option string)) (k ^ " intact") (Some "rewritten") (get s k))
    keys

let test_put_until_full_then_reclaim () =
  let s = make () in
  (* Keep overwriting one key with large values until space pressure forces
     reclamation through the put path; the store must not lose the key. *)
  for i = 0 to 30 do
    match S.put s ~key:"pressure" ~value:(String.make 90 (Char.chr (48 + (i mod 70)))) with
    | Ok _ -> ()
    | Error S.No_space -> ()
    | Error e -> Alcotest.failf "unexpected error: %a" S.pp_error e
  done;
  Alcotest.(check bool) "key readable" true (get s "pressure" <> None)

let test_out_of_service_rejects () =
  let s = make () in
  put s "k" "v";
  ignore (ok (S.remove_from_service s));
  (match S.put s ~key:"x" ~value:"y" with
  | Error S.Out_of_service -> ()
  | _ -> Alcotest.fail "out-of-service must reject");
  ignore (ok (S.return_to_service s));
  Alcotest.(check (option string)) "data intact after return" (Some "v") (get s "k")

let test_f4_disk_return_loses_shards () =
  Faults.disable_all ();
  let s = make () in
  put s "kept" "v1";
  ignore (ok (S.flush_index s));
  ignore (ok (S.flush_superblock s));
  ignore (S.pump s 1000);
  put s "lost" "v2";
  Faults.enable Faults.F4_disk_return_loses_shards;
  ignore (ok (S.remove_from_service s));
  Faults.disable Faults.F4_disk_return_loses_shards;
  ignore (ok (S.return_to_service s));
  Alcotest.(check (option string)) "flushed shard survives" (Some "v1") (get s "kept");
  Alcotest.(check (option string)) "unflushed shard lost" None (get s "lost");
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F4_disk_return_loses_shards > 0)

let test_compact_via_store () =
  let s = make () in
  put s "a" "1";
  ignore (ok (S.flush_index s));
  put s "b" "2";
  ignore (ok (S.flush_index s));
  Alcotest.(check bool) "several runs" true (S.index_run_count s >= 2);
  (* Levelled: each quiescent compact pushes one victim down; converge. *)
  for _ = 1 to 4 do
    ignore (ok (S.compact s));
    match S.level_invariants s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "level invariants: %s" msg
  done;
  (* Converged: L0 drained into a deeper level (disjoint runs there are
     final — merging them would be pure write amplification). *)
  (match S.level_runs s with
  | 0 :: deeper when List.fold_left ( + ) 0 deeper >= 1 -> ()
  | shape ->
    Alcotest.failf "expected an empty L0, got [%s]"
      (String.concat ";" (List.map string_of_int shape)));
  Alcotest.(check (option string)) "a" (Some "1") (get s "a");
  Alcotest.(check (option string)) "b" (Some "2") (get s "b")

(* The store against the mocked index: the reference model as mock. *)
let test_mocked_store_basic () =
  let s = Mocked.create Mocked.test_config in
  (match Mocked.put s ~key:"m" ~value:"mock" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mocked put: %a" Mocked.pp_error e);
  (match Mocked.get s ~key:"m" with
  | Ok (Some "mock") -> ()
  | _ -> Alcotest.fail "mocked get");
  (match Mocked.delete s ~key:"m" with Ok _ -> () | Error _ -> Alcotest.fail "mocked delete");
  match Mocked.get s ~key:"m" with
  | Ok None -> ()
  | _ -> Alcotest.fail "mocked delete visible"

let test_mocked_store_reclaim () =
  let s = Mocked.create Mocked.test_config in
  for i = 0 to 9 do
    ignore (Mocked.put s ~key:"churn" ~value:(String.make 80 (Char.chr (65 + i))))
  done;
  (match Mocked.reclaim s () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mocked reclaim: %a" Mocked.pp_error e);
  match Mocked.get s ~key:"churn" with
  | Ok (Some v) -> Alcotest.(check string) "value intact" (String.make 80 'J') v
  | _ -> Alcotest.fail "mocked reclaim lost data"

(* The LSM index whose lookups fail while [failing] is set. Runs stay
   memoised while a level holds them, so the real index rarely fails a
   lookup; this one lets a test reach reclamation's lookup-failure arm. *)
module Flaky_index = struct
  include Lsm.Index

  let failing = ref false
  let create ?obs chunks ~metadata_extents = Lsm.Index.create ?obs chunks ~metadata_extents

  let get t ~key =
    if !failing then Error (Chunk (Chunk.Chunk_store.Io (Io_sched.Io Disk.Transient)))
    else Lsm.Index.get t ~key
end

module Flaky = Store.Make (Flaky_index)

(* Reclamation cannot tell whether a chunk is live when its owner's lookup
   fails, so it must keep (relocate) the chunk, never drop it. *)
let test_reclaim_keeps_chunks_on_lookup_failure () =
  let fok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "flaky store: %a" Flaky.pp_error e
  in
  let s = Flaky.create Flaky.test_config in
  let keys = List.init 8 (fun i -> Printf.sprintf "key%d" i) in
  let value i = String.make 40 (Char.chr (97 + i)) in
  List.iteri (fun i k -> ignore (fok (Flaky.put s ~key:k ~value:(value i)))) keys;
  (* Garbage beside the live chunks, so the extents are worth reclaiming. *)
  List.iter (fun k -> ignore (fok (Flaky.put s ~key:k ~value:"v2"))) [ "key0"; "key1" ];
  ignore (fok (Flaky.flush_index s));
  let reclaimed =
    Fun.protect
      ~finally:(fun () -> Flaky_index.failing := false)
      (fun () ->
        Flaky_index.failing := true;
        let rec drain n acc =
          if n = 0 then acc
          else
            match fok (Flaky.reclaim s ()) with
            | Some _ -> drain (n - 1) (acc + 1)
            | None -> acc
        in
        drain 10 0)
  in
  Alcotest.(check bool) "reclaimed an extent" true (reclaimed > 0);
  List.iteri
    (fun i k ->
      let want = if i < 2 then "v2" else value i in
      Alcotest.(check (option string)) (k ^ " intact") (Some want) (fok (Flaky.get s ~key:k)))
    keys

(* Property: random crash-free workloads match the plain reference model. *)
let prop_random_workload_matches_model =
  QCheck.Test.make ~name:"random crash-free workload matches hash-map model" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let s = make () in
      let model = Model.Kv_model.create () in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d" |] in
      let steps = 40 in
      let okq = function
        | Ok v -> v
        | Error e -> QCheck.Test.fail_reportf "store error: %a" S.pp_error e
      in
      for _ = 1 to steps do
        let key = Rng.pick rng keys in
        match Rng.int rng 6 with
        | 0 | 1 -> (
          let value = Bytes.to_string (Rng.bytes rng (Rng.int rng 150)) in
          match S.put s ~key ~value with
          | Ok _ -> Model.Kv_model.put model ~key ~value
          | Error S.No_space -> () (* full disk: op rejected, model unchanged *)
          | Error e -> QCheck.Test.fail_reportf "store error: %a" S.pp_error e)
        | 2 ->
          ignore (okq (S.delete s ~key));
          Model.Kv_model.delete model ~key
        | 3 ->
          let expected = Model.Kv_model.get model ~key in
          let actual = okq (S.get s ~key) in
          if expected <> actual then
            QCheck.Test.fail_reportf "divergence on %S: model %s, impl %s" key
              (Option.value ~default:"<none>" expected)
              (Option.value ~default:"<none>" actual)
        | 4 -> (
          match S.flush_index s with
          | Ok _ | Error S.No_space -> ()
          | Error e -> QCheck.Test.fail_reportf "store error: %a" S.pp_error e)
        | _ -> ignore (S.pump s (Rng.int rng 8))
      done;
      List.for_all
        (fun key ->
          let expected = Model.Kv_model.get model ~key in
          expected = okq (S.get s ~key))
        (Array.to_list keys))

(* Property: after a random workload and a clean shutdown, a brand-new
   store opened on the same disk recovers exactly the model's state. *)
let prop_clean_reboot_equivalence =
  QCheck.Test.make ~name:"clean reboot preserves the full mapping" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let s = make () in
      let model = Model.Kv_model.create () in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d" |] in
      for _ = 1 to 30 do
        let key = Rng.pick rng keys in
        match Rng.int rng 4 with
        | 0 | 1 -> (
          let value = Bytes.to_string (Rng.bytes rng (Rng.int rng 120)) in
          match S.put s ~key ~value with
          | Ok _ -> Model.Kv_model.put model ~key ~value
          | Error S.No_space -> ()
          | Error e -> QCheck.Test.fail_reportf "put: %a" S.pp_error e)
        | 2 -> (
          match S.delete s ~key with
          | Ok _ -> Model.Kv_model.delete model ~key
          | Error e -> QCheck.Test.fail_reportf "delete: %a" S.pp_error e)
        | _ -> ignore (S.pump s (Rng.int rng 6))
      done;
      match S.clean_shutdown s with
      | Error S.No_space -> true (* full disk: shutdown rejected, nothing to check *)
      | Error e -> QCheck.Test.fail_reportf "shutdown: %a" S.pp_error e
      | Ok () -> (
        let s2 = S.of_disk S.test_config (S.disk s) in
        match S.recover s2 with
        | Error e -> QCheck.Test.fail_reportf "recover: %a" S.pp_error e
        | Ok () ->
          (match S.list s2 with
          | Ok keys' ->
            if keys' <> Model.Kv_model.list model then
              QCheck.Test.fail_reportf "key set diverged after reboot"
          | Error e -> QCheck.Test.fail_reportf "list: %a" S.pp_error e);
          Array.for_all
            (fun key ->
              match S.get s2 ~key with
              | Ok v -> v = Model.Kv_model.get model ~key
              | Error _ -> false)
            keys))

(* {2 The shared-state store} *)

module Sh = Store.Shared

let sh_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "shared store error: %a" S.pp_error e

(* Single domain, mixed staged/drained state: every observation through
   Shared must equal what the same op sequence produces on a plain
   Default store. *)
let test_shared_matches_default_single_domain () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 S.default_config in
  let ref_s = S.create S.default_config in
  let keys = [| "a"; "b"; "c"; "d"; "e" |] in
  let rng = Rng.create 99L in
  for i = 0 to 199 do
    let key = Rng.pick rng keys in
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> (
      let value = Printf.sprintf "v%d" i in
      sh_ok (Sh.put sh ~key ~value);
      match S.put ref_s ~key ~value with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ref put: %a" S.pp_error e)
    | 4 -> (
      sh_ok (Sh.delete sh ~key);
      match S.delete ref_s ~key with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ref delete: %a" S.pp_error e)
    | 5 ->
      (* flush drains staged mutations into the underlying store *)
      ignore (sh_ok (Sh.flush sh))
    | _ ->
      Alcotest.(check (option string))
        (Printf.sprintf "get %s at step %d" key i)
        (ok (S.get ref_s ~key))
        (sh_ok (Sh.get sh ~key))
  done;
  Alcotest.(check (list string)) "same key set" (ok (S.list ref_s)) (sh_ok (Sh.list sh));
  ignore (sh_ok (Sh.flush sh));
  Alcotest.(check int) "drained" 0 (Sh.staged_count sh);
  Array.iter
    (fun key ->
      Alcotest.(check (option string))
        ("post-drain " ^ key)
        (ok (S.get ref_s ~key))
        (ok (S.get (Sh.store sh) ~key)))
    keys

let test_shared_put_batch_groups_by_shard () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 S.default_config in
  let batch = List.init 20 (fun i -> (Printf.sprintf "bk%d" i, Printf.sprintf "bv%d" i)) in
  let br = sh_ok (Sh.put_batch sh (batch @ [ ("bk0", "rewritten") ])) in
  Alcotest.(check int) "one outcome per op" 21 (List.length br.Sh.results);
  List.iteri
    (fun i r ->
      match r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch op %d: %a" i S.pp_error e)
    br.Sh.results;
  Alcotest.(check (option string)) "last wins in batch" (Some "rewritten")
    (sh_ok (Sh.get sh ~key:"bk0"));
  List.iter
    (fun (k, v) ->
      if k <> "bk0" then
        Alcotest.(check (option string)) ("batched " ^ k) (Some v) (sh_ok (Sh.get sh ~key:k)))
    batch;
  ignore (sh_ok (Sh.flush sh));
  Alcotest.(check (option string)) "durable after drain" (Some "rewritten")
    (ok (S.get (Sh.store sh) ~key:"bk0"))

let test_shared_delete_batch () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 S.default_config in
  List.iter
    (fun (k, v) -> sh_ok (Sh.put sh ~key:k ~value:v))
    [ ("da", "1"); ("db", "2"); ("dc", "3") ];
  let br = sh_ok (Sh.delete_batch sh [ "da"; "missing"; "dc" ]) in
  Alcotest.(check int) "one outcome per op" 3 (List.length br.Sh.results);
  List.iteri
    (fun i r ->
      match r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete_batch op %d: %a" i S.pp_error e)
    br.Sh.results;
  Alcotest.(check (option string)) "da gone" None (sh_ok (Sh.get sh ~key:"da"));
  Alcotest.(check (option string)) "db kept" (Some "2") (sh_ok (Sh.get sh ~key:"db"));
  Alcotest.(check (option string)) "dc gone" None (sh_ok (Sh.get sh ~key:"dc"));
  ignore (sh_ok (Sh.flush sh));
  Alcotest.(check (list string)) "durable key set after drain" [ "db" ]
    (ok (S.list (Sh.store sh)))

(* A scan must return byte-identical results from the levelled Default
   store, the Shared overlay (staged mutations applied over the base
   scan), and the composed per-level reference model — at arbitrary points
   of a random workload, under arbitrary bounds, while flushes and
   compactions rearrange the runs underneath. *)
let prop_scan_three_way_identity =
  QCheck.Test.make ~name:"scan identity: Default = Shared = level model" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Faults.disable_all ();
      let ref_s = S.create S.default_config in
      let sh = Sh.create ~shards:4 S.default_config in
      let lm = Model.Level_model.create () in
      let rng = Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |] in
      let bound () = if Rng.chance rng 0.3 then None else Some (Rng.pick rng keys) in
      let compare_scans step =
        let lo = bound () and hi = bound () in
        let lo, hi =
          match (lo, hi) with
          | Some l, Some h when String.compare l h > 0 -> (Some h, Some l)
          | b -> b
        in
        let expected = Model.Level_model.scan lm ~lo ~hi in
        let via_default =
          match S.scan ref_s ?lo ?hi () with
          | Ok pairs -> pairs
          | Error e -> QCheck.Test.fail_reportf "scan: %a" S.pp_error e
        in
        let via_shared =
          match Sh.scan sh ?lo ?hi () with
          | Ok pairs -> pairs
          | Error e -> QCheck.Test.fail_reportf "shared scan: %a" S.pp_error e
        in
        if via_default <> expected then
          QCheck.Test.fail_reportf "step %d: Default scan diverged from level model" step;
        if via_shared <> expected then
          QCheck.Test.fail_reportf "step %d: Shared scan diverged from level model" step
      in
      for step = 0 to 119 do
        let key = Rng.pick rng keys in
        (match Rng.int rng 12 with
        | 0 | 1 | 2 | 3 | 4 -> (
          let value = Printf.sprintf "v%d-%d" seed step in
          Model.Level_model.put lm ~key ~value;
          sh_ok (Sh.put sh ~key ~value);
          match S.put ref_s ~key ~value with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "put: %a" S.pp_error e)
        | 5 | 6 -> (
          Model.Level_model.delete lm ~key;
          sh_ok (Sh.delete sh ~key);
          match S.delete ref_s ~key with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "delete: %a" S.pp_error e)
        | 7 -> (
          (* reshaping the runs must not change what a scan yields *)
          Model.Level_model.flush lm;
          ignore (sh_ok (Sh.flush sh));
          match S.flush_index ref_s with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "flush_index: %a" S.pp_error e)
        | 8 -> (
          Model.Level_model.compact lm;
          match S.compact ref_s with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "compact: %a" S.pp_error e)
        | _ -> compare_scans step);
        match Model.Level_model.invariants lm with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "step %d: model level invariants: %s" step msg
      done;
      compare_scans 120;
      (match S.level_invariants ref_s with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "level invariants: %s" msg);
      true)

(* Racing domains on one shared store: no errors, and after the joins the
   drained state serves every key consistently. The audited gate is
   Experiments.Shared_lin (validate --shared); this is the in-tree smoke
   version. *)
let test_shared_multi_domain_smoke () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 S.default_config in
  let domains = 4 and per_domain = 30 in
  let errors = Atomic.make 0 in
  let worker d () =
    let rng = Rng.create (Int64.of_int (1000 + d)) in
    for i = 0 to per_domain - 1 do
      let key = Printf.sprintf "k%d" (Rng.int rng 8) in
      let r =
        match Rng.int rng 4 with
        | 0 -> Result.map (fun _ -> ()) (Sh.get sh ~key)
        | 1 -> Sh.delete sh ~key
        | 2 -> Result.map (fun _ -> ()) (Sh.flush sh)
        | _ -> Sh.put sh ~key ~value:(Printf.sprintf "d%d-%d" d i)
      in
      match r with Ok () -> () | Error _ -> Atomic.incr errors
    done
  in
  let ds = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no errors under contention" 0 (Atomic.get errors);
  ignore (sh_ok (Sh.flush sh));
  Alcotest.(check int) "fully drained" 0 (Sh.staged_count sh);
  (* overlay reads now agree with the underlying store for every key *)
  for i = 0 to 7 do
    let key = Printf.sprintf "k%d" i in
    Alcotest.(check (option string))
      ("consistent " ^ key)
      (ok (S.get (Sh.store sh) ~key))
      (sh_ok (Sh.get sh ~key))
  done

(* {2 The maintenance plane} *)

(* Foreground domains race a dedicated maintenance domain; the recorded
   history must still audit Valid against the per-key model, and the
   maintenance domain itself must finish with zero errors. *)
let test_shared_maint_racing_linearizable () =
  Faults.disable_all ();
  let r = Experiments.Shared_lin.run ~domains:3 ~ops_per_domain:40 ~maint:true () in
  if not (Experiments.Shared_lin.ok r) then
    Alcotest.failf "maintenance-racing run failed:@.%a" Experiments.Shared_lin.pp_report r;
  match r.Experiments.Shared_lin.maint with
  | None -> Alcotest.fail "no maintenance stats attached to the report"
  | Some s ->
    Alcotest.(check int) "maintenance errors" 0 s.Sh.Maint.errors;
    if s.Sh.Maint.steps = 0 then Alcotest.fail "maintenance domain never stepped"

(* Maint worker lifecycle against live foreground traffic from this
   domain: it must drain the staging layer on its own, finish with zero
   errors, and leave every key serving the last value written. *)
let test_shared_maint_worker_drains_live_traffic () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 S.default_config in
  let w = Sh.Maint.start ~compact_every:8 ~reclaim_every:12 sh in
  for i = 0 to 199 do
    let key = Printf.sprintf "w%d" (i mod 8) in
    sh_ok (Sh.put sh ~key ~value:(Printf.sprintf "wv%d" i))
  done;
  (* wait (bounded) for the worker to drain what we staged *)
  let rec wait n = if Sh.staged_count sh > 0 && n > 0 then (Domain.cpu_relax (); wait (n - 1)) in
  wait 20_000_000;
  let stats = Sh.Maint.stop w in
  Alcotest.(check int) "maintenance errors" 0 stats.Sh.Maint.errors;
  if stats.Sh.Maint.flushes = 0 then Alcotest.fail "worker never flushed a shard";
  ignore (sh_ok (Sh.flush sh));
  for i = 0 to 7 do
    let key = Printf.sprintf "w%d" i in
    (* last write to w<i> was op 192+i *)
    Alcotest.(check (option string))
      ("drained " ^ key)
      (Some (Printf.sprintf "wv%d" (192 + i)))
      (ok (S.get (Sh.store sh) ~key))
  done

(* A Default scan of the underlying store keeps what it returned while the
   Shared maintenance plane rearranges everything underneath: shard
   flushes push staged overwrites into the base, compact rewrites the runs
   and reclaim relocates chunks. A fresh Shared scan afterwards sees the
   maintained state. *)
let test_shared_maint_scan_pinned () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 ~flush_chunk:2 S.default_config in
  let expect = List.init 8 (fun i -> (Printf.sprintf "sk%d" i, Printf.sprintf "sv%d" i)) in
  List.iter (fun (k, v) -> sh_ok (Sh.put sh ~key:k ~value:v)) expect;
  ignore (sh_ok (Sh.flush sh));
  (* stage a second wave the scan must NOT see *)
  List.iter (fun (k, _) -> sh_ok (Sh.put sh ~key:k ~value:"overwritten")) expect;
  sh_ok (Sh.put sh ~key:"sz-late" ~value:"late");
  let got = ok (S.scan (Sh.store sh) ()) in
  for i = 0 to 7 do
    match i mod 3 with
    | 0 -> ignore (sh_ok (Sh.flush_shard sh (i mod 4)))
    | 1 -> sh_ok (Sh.compact sh)
    | _ -> ignore (sh_ok (Sh.flush sh))
  done;
  ignore (sh_ok (Sh.reclaim sh));
  Alcotest.(check (list (pair string string))) "scan kept its snapshot" expect got;
  let after = sh_ok (Sh.scan sh ()) in
  let expected_after =
    List.map (fun (k, _) -> (k, "overwritten")) expect @ [ ("sz-late", "late") ]
  in
  Alcotest.(check (list (pair string string)))
    "fresh scan sees maintained state" expected_after after

(* Single domain: a seeded op sequence with every maintenance-plane
   entry point interspersed must stay byte-identical to the same
   puts/deletes on a bare Default store — flush_shard, compact and
   reclaim may move data, never change it. *)
let test_shared_maint_matches_default_single_domain () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:4 ~flush_chunk:3 S.default_config in
  let ref_s = S.create S.default_config in
  let keys = [| "ma"; "mb"; "mc"; "md"; "me"; "mf" |] in
  let rng = Rng.create 4242L in
  for i = 0 to 249 do
    let key = Rng.pick rng keys in
    match Rng.int rng 12 with
    | 0 | 1 | 2 | 3 | 4 ->
      let value = Printf.sprintf "mv%d" i in
      sh_ok (Sh.put sh ~key ~value);
      ignore (ok (S.put ref_s ~key ~value))
    | 5 ->
      sh_ok (Sh.delete sh ~key);
      ignore (ok (S.delete ref_s ~key))
    | 6 -> ignore (sh_ok (Sh.flush_shard sh (i mod 4)))
    | 7 -> sh_ok (Sh.compact sh)
    | 8 -> ignore (sh_ok (Sh.reclaim sh))
    | _ ->
      Alcotest.(check (option string))
        (Printf.sprintf "get %s at step %d" key i)
        (ok (S.get ref_s ~key))
        (sh_ok (Sh.get sh ~key))
  done;
  Alcotest.(check (list string)) "same key set" (ok (S.list ref_s)) (sh_ok (Sh.list sh));
  Array.iter
    (fun key ->
      Alcotest.(check (option string))
        ("final " ^ key)
        (ok (S.get ref_s ~key))
        (sh_ok (Sh.get sh ~key)))
    keys;
  sh_ok (Sh.clean_shutdown sh);
  Alcotest.(check int) "clean shutdown drains staging" 0 (Sh.staged_count sh)

(* A crash through the Shared plane: staged-but-unflushed entries are
   volatile by design — a dirty reboot drops them, while everything the
   maintenance plane already drained survives per the Default store's
   durability contract (clean_reboot_spec loses nothing persistent). *)
let test_shared_dirty_reboot_drops_staged () =
  Faults.disable_all ();
  let sh = Sh.create ~shards:2 S.default_config in
  sh_ok (Sh.put sh ~key:"durable" ~value:"kept");
  ignore (sh_ok (Sh.flush sh));
  sh_ok (Sh.put sh ~key:"staged-only" ~value:"lost");
  let rng = Rng.create 7L in
  sh_ok (Sh.dirty_reboot sh ~rng S.clean_reboot_spec);
  Alcotest.(check int) "staging dropped" 0 (Sh.staged_count sh);
  Alcotest.(check (option string)) "drained entry survives" (Some "kept")
    (sh_ok (Sh.get sh ~key:"durable"));
  Alcotest.(check (option string)) "staged entry lost" None
    (sh_ok (Sh.get sh ~key:"staged-only"))

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "store"
    [
      ( "request plane",
        [
          Alcotest.test_case "put/get/delete/list" `Quick test_put_get_delete;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "empty value" `Quick test_empty_value;
          Alcotest.test_case "multi-chunk value" `Quick test_multi_chunk_value;
          QCheck_alcotest.to_alcotest prop_random_workload_matches_model;
        ] );
      ( "batching",
        [
          Alcotest.test_case "put_batch matches sequential" `Quick
            test_put_batch_matches_sequential;
          Alcotest.test_case "in-batch overwrite" `Quick test_put_batch_last_write_wins;
          Alcotest.test_case "group commit amortizes appends" `Quick
            test_put_batch_group_commit_amortizes;
          Alcotest.test_case "batch barrier durability" `Quick test_put_batch_barrier;
          Alcotest.test_case "delete_batch" `Quick test_delete_batch;
          Alcotest.test_case "batch rejects out of service" `Quick test_batch_out_of_service;
        ] );
      ( "durability",
        [
          Alcotest.test_case "clean shutdown forward progress" `Quick
            test_clean_shutdown_forward_progress;
          Alcotest.test_case "survives clean reboot" `Quick test_survives_clean_reboot;
          Alcotest.test_case "dirty reboot keeps persistent data" `Quick
            test_dirty_reboot_keeps_persistent_data;
          Alcotest.test_case "dirty reboot may lose volatile data" `Quick
            test_dirty_reboot_may_lose_volatile_data;
          QCheck_alcotest.to_alcotest prop_clean_reboot_equivalence;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "reclaim recovers space" `Quick test_reclaim_recovers_space;
          Alcotest.test_case "reclaim preserves data" `Quick test_reclaim_preserves_all_data;
          Alcotest.test_case "space pressure" `Quick test_put_until_full_then_reclaim;
          Alcotest.test_case "compact" `Quick test_compact_via_store;
        ] );
      ( "control plane",
        [
          Alcotest.test_case "out of service rejects" `Quick test_out_of_service_rejects;
          Alcotest.test_case "#4 disk return loses shards" `Quick test_f4_disk_return_loses_shards;
        ] );
      ( "mocked index",
        [
          Alcotest.test_case "basic" `Quick test_mocked_store_basic;
          Alcotest.test_case "reclaim with mock" `Quick test_mocked_store_reclaim;
          Alcotest.test_case "reclaim keeps chunks on lookup failure" `Quick
            test_reclaim_keeps_chunks_on_lookup_failure;
        ] );
      ( "shared",
        [
          Alcotest.test_case "matches Default single-domain" `Quick
            test_shared_matches_default_single_domain;
          Alcotest.test_case "put_batch groups by shard" `Quick
            test_shared_put_batch_groups_by_shard;
          Alcotest.test_case "delete_batch per-op results" `Quick test_shared_delete_batch;
          Alcotest.test_case "multi-domain smoke" `Quick test_shared_multi_domain_smoke;
        ] );
      ( "maintenance plane (shared)",
        [
          Alcotest.test_case "racing maintenance domain linearizes" `Quick
            test_shared_maint_racing_linearizable;
          Alcotest.test_case "maint worker drains live traffic" `Quick
            test_shared_maint_worker_drains_live_traffic;
          Alcotest.test_case "scan pinned across maintenance" `Quick
            test_shared_maint_scan_pinned;
          Alcotest.test_case "maintenance ops match Default" `Quick
            test_shared_maint_matches_default_single_domain;
          Alcotest.test_case "dirty reboot drops staged entries" `Quick
            test_shared_dirty_reboot_drops_staged;
        ] );
      ( "scan",
        [ QCheck_alcotest.to_alcotest prop_scan_three_way_identity ] );
    ]
