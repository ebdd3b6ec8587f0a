(* Tests for chunk framing and the chunk store: put/get, epoch-stale
   locators, allocation across extents, and reclamation. *)

open Util
open Chunk

let config = { Disk.extent_count = 8; pages_per_extent = 8; page_size = 32 }
let reserved = [ 0; 1 ]

let make () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:8L disk in
  let cache = Cache.create sched in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved in
  let rng = Rng.create 99L in
  let cs = Chunk_store.create sched ~cache ~superblock:sb ~rng in
  (disk, sched, sb, cs)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "chunk store error: %a" Chunk_store.pp_error e

(* {2 Frame format} *)

let test_frame_roundtrip () =
  let rng = Rng.create 1L in
  let uuid = Uuid.generate rng in
  let owner = Chunk_format.Shard "key-1" in
  let frame = Chunk_format.encode ~uuid ~owner ~payload:"the payload" in
  Alcotest.(check int) "frame_len" (String.length frame)
    (Chunk_format.frame_len ~owner ~payload_len:11);
  let prefix = String.sub frame 0 Chunk_format.prefix_len in
  Alcotest.(check int) "prefix length" (String.length frame)
    (Result.get_ok (Chunk_format.decode_prefix prefix));
  let chunk = Result.get_ok (Chunk_format.decode frame) in
  Alcotest.(check string) "payload" "the payload" chunk.Chunk_format.payload;
  Alcotest.(check bool) "owner" true (Chunk_format.owner_equal owner chunk.Chunk_format.owner)

let test_frame_detects_payload_corruption () =
  let rng = Rng.create 1L in
  let frame =
    Chunk_format.encode ~uuid:(Uuid.generate rng) ~owner:(Chunk_format.Index_run 3)
      ~payload:"sensitive"
  in
  let b = Bytes.of_string frame in
  (* flip one payload byte (prefix + owner(9) + uuid) *)
  let pos = Chunk_format.prefix_len + 9 + Uuid.size + 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  match Chunk_format.decode (Bytes.to_string b) with
  | Error Codec.Bad_checksum -> ()
  | _ -> Alcotest.fail "payload corruption must fail the CRC"

let test_frame_detects_truncation () =
  let rng = Rng.create 1L in
  let frame =
    Chunk_format.encode ~uuid:(Uuid.generate rng) ~owner:(Chunk_format.Shard "k") ~payload:"data"
  in
  match Chunk_format.decode (String.sub frame 0 (String.length frame - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame must fail"

let test_frame_uuid_mismatch () =
  let rng = Rng.create 1L in
  let frame =
    Chunk_format.encode ~uuid:(Uuid.generate rng) ~owner:(Chunk_format.Shard "k") ~payload:"data"
  in
  let b = Bytes.of_string frame in
  Bytes.set b (Bytes.length b - 1) '\xFF';
  match Chunk_format.decode ~check_crc:false (Bytes.to_string b) with
  | Error (Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "tail uuid mismatch must fail"

(* Property: decode never raises on arbitrary bytes. *)
let prop_decode_total =
  QCheck.Test.make ~name:"frame decode total on arbitrary bytes" ~count:2000
    QCheck.(string_of_size Gen.(0 -- 128))
    (fun s ->
      let _ = Chunk_format.decode s in
      let _ = Chunk_format.decode_prefix s in
      true)

(* The decoder that the in-place one replaced, which copied every field
   out of the frame before checking it. Kept as the reference that
   [Chunk_format.decode] must match value for value and error for error. *)
let reference_decode ?(check_crc = true) frame =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string frame in
  let* () = Codec.Reader.magic r Chunk_format.magic in
  let* len32 = Codec.Reader.u32 r in
  let total = Int32.to_int len32 in
  if total <> String.length frame then Error (Codec.Invalid "frame length mismatch")
  else
    let* crc = Codec.Reader.u32 r in
    let* owner =
      let* tag = Codec.Reader.u8 r in
      match tag with
      | 0 ->
        let+ key = Codec.Reader.lstring r in
        Chunk_format.Shard key
      | 1 ->
        let+ id = Codec.Reader.uint r in
        Chunk_format.Index_run id
      | _ -> Error (Codec.Invalid "owner tag")
    in
    let* head = Codec.Reader.raw r Uuid.size in
    let payload_len = total - Codec.Reader.pos r - Uuid.size in
    if payload_len < 0 then Error (Codec.Invalid "negative payload length")
    else
      let* payload = Codec.Reader.raw r payload_len in
      let* tail = Codec.Reader.raw r Uuid.size in
      if not (String.equal head tail) then Error (Codec.Invalid "uuid mismatch")
      else if check_crc && Crc32.digest_string payload <> crc then Error Codec.Bad_checksum
      else Ok (owner, payload, Uuid.to_string (Uuid.of_string_exn head))

let show_decoded = function
  | Ok (owner, payload, uuid) ->
    Format.asprintf "Ok (%a, %S, %s)" Chunk_format.pp_owner owner payload
      (Uuid.to_hex (Uuid.of_string_exn uuid))
  | Error e -> "Error " ^ Codec.error_to_string e

(* One test frame: a valid frame of random owner and size, then cut,
   extended, bit-flipped or replaced by random bytes. A cut or extended
   frame gets its length field patched half of the time, so the checks
   behind the length check see it too. *)
let mutated_frame rng =
  let owner =
    if Rng.bool rng then Chunk_format.Shard (String.make (Rng.int rng 24) 'k')
    else Chunk_format.Index_run (Rng.int rng 1_000_000)
  in
  let payload = Bytes.to_string (Rng.bytes rng (Rng.int rng 300)) in
  let frame = Chunk_format.encode ~uuid:(Uuid.generate rng) ~owner ~payload in
  let patch_len s =
    if String.length s >= 6 && Rng.bool rng then begin
      let b = Bytes.of_string s in
      Bytes.set_int32_le b 2 (Int32.of_int (Bytes.length b));
      Bytes.to_string b
    end
    else s
  in
  match Rng.int rng 5 with
  | 0 -> ("valid", frame)
  | 1 -> ("truncated", patch_len (String.sub frame 0 (Rng.int rng (String.length frame))))
  | 2 -> ("extended", patch_len (frame ^ Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 20))))
  | 3 ->
    let b = Bytes.of_string frame in
    for _ = 0 to Rng.int rng 2 do
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)))
    done;
    ("bit-flipped", Bytes.to_string b)
  | _ ->
    let b = Rng.bytes rng (Rng.int rng 64) in
    if Bytes.length b >= 2 && Rng.bool rng then Bytes.blit_string Chunk_format.magic 0 b 0 2;
    ("random", patch_len (Bytes.to_string b))

let test_decode_matches_reference () =
  let rng = Rng.create 2005L in
  for i = 1 to 20_000 do
    let kind, frame = mutated_frame rng in
    List.iter
      (fun check_crc ->
        let got =
          Result.map
            (fun c ->
              (c.Chunk_format.owner, c.Chunk_format.payload, Uuid.to_string c.Chunk_format.uuid))
            (Chunk_format.decode ~check_crc frame)
        in
        let want = reference_decode ~check_crc frame in
        if got <> want then
          Alcotest.failf "frame %d (%s, check_crc %b): got %s, want %s" i kind check_crc
            (show_decoded got) (show_decoded want))
      [ true; false ]
  done

(* Property: encode/decode roundtrip for arbitrary payloads and owners. *)
let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame roundtrip" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 20)))
    (fun (payload, key) ->
      let rng = Rng.create (Int64.of_int (Hashtbl.hash (payload, key))) in
      let owner = Chunk_format.Shard key in
      let frame = Chunk_format.encode ~uuid:(Uuid.generate rng) ~owner ~payload in
      match Chunk_format.decode frame with
      | Ok c ->
        String.equal c.Chunk_format.payload payload
        && Chunk_format.owner_equal c.Chunk_format.owner owner
      | Error _ -> false)

(* {2 Chunk store} *)

let test_put_get () =
  let _, _, _, cs = make () in
  let loc, dep = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "a") ~payload:"hello") in
  Alcotest.(check bool) "not yet persistent" false (Dep.is_persistent dep);
  let chunk = ok (Chunk_store.get cs loc) in
  Alcotest.(check string) "payload" "hello" chunk.Chunk_format.payload

let test_put_becomes_persistent_after_sb_flush () =
  let _, sched, sb, cs = make () in
  let _, dep = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "a") ~payload:"hello") in
  ignore (Io_sched.flush sched);
  Alcotest.(check bool) "pointer promise still open" false (Dep.is_persistent dep);
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  ignore (Io_sched.flush sched);
  Alcotest.(check bool) "persistent once covered" true (Dep.is_persistent dep)

let test_put_batch_roundtrip_one_append () =
  let _, sched, _, cs = make () in
  let obs = Io_sched.obs sched in
  let items =
    List.init 3 (fun i -> (Chunk_format.Shard (Printf.sprintf "b%d" i), Printf.sprintf "pay-%d" i))
  in
  let results = ok (Chunk_store.put_batch cs ~items) in
  Alcotest.(check int) "one locator per item" 3 (List.length results);
  List.iteri
    (fun i (loc, _) ->
      let chunk = ok (Chunk_store.get cs loc) in
      Alcotest.(check string) (Printf.sprintf "payload %d" i) (Printf.sprintf "pay-%d" i)
        chunk.Chunk_format.payload;
      Alcotest.(check bool) (Printf.sprintf "owner %d" i) true
        (Chunk_format.owner_equal (Chunk_format.Shard (Printf.sprintf "b%d" i))
           chunk.Chunk_format.owner))
    results;
  (* The whole group staged as a single append: the group-commit win. *)
  Alcotest.(check int) "one append for the group" 1 (Obs.counter_value obs "iosched.append");
  Alcotest.(check int) "one group" 1 (Obs.counter_value obs "chunk.batch_group")

let test_put_batch_shares_group_dep () =
  let _, sched, sb, cs = make () in
  let items = List.init 3 (fun i -> (Chunk_format.Shard (Printf.sprintf "d%d" i), "x")) in
  let results = ok (Chunk_store.put_batch cs ~items) in
  ignore (Io_sched.flush sched);
  List.iter
    (fun (_, dep) ->
      Alcotest.(check bool) "pointer promise still open" false (Dep.is_persistent dep))
    results;
  (match Superblock.flush sb with Ok _ -> () | Error _ -> Alcotest.fail "sb flush");
  ignore (Io_sched.flush sched);
  List.iter
    (fun (_, dep) ->
      Alcotest.(check bool) "persistent once covered" true (Dep.is_persistent dep))
    results

let test_put_batch_spills_across_extents () =
  let _, sched, _, cs = make () in
  let obs = Io_sched.obs sched in
  (* ~90-byte payloads occupy 5 of an extent's 8 pages, so consecutive items
     cannot share an extent: every item opens its own group. *)
  let items =
    List.init 3 (fun i -> (Chunk_format.Shard (Printf.sprintf "s%d" i), String.make 90 'x'))
  in
  let results = ok (Chunk_store.put_batch cs ~items) in
  let extents =
    List.sort_uniq compare (List.map (fun (loc, _) -> loc.Locator.extent) results)
  in
  Alcotest.(check bool) "spilled to several extents" true (List.length extents >= 2);
  Alcotest.(check bool) "several groups" true (Obs.counter_value obs "chunk.batch_group" >= 2);
  List.iter
    (fun (loc, _) ->
      let chunk = ok (Chunk_store.get cs loc) in
      Alcotest.(check string) "spilled payload intact" (String.make 90 'x')
        chunk.Chunk_format.payload)
    results;
  ignore sched

let test_put_batch_oversized_rejected () =
  let _, _, _, cs = make () in
  match
    Chunk_store.put_batch cs
      ~items:
        [
          (Chunk_format.Shard "ok", "small");
          (Chunk_format.Shard "big", String.make (2 * Disk.extent_size config) 'x');
        ]
  with
  | Error Chunk_store.No_space -> ()
  | _ -> Alcotest.fail "batch with an oversized chunk must be rejected up front"

let test_stale_locator_after_reset () =
  let _, sched, _, cs = make () in
  let loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "a") ~payload:"hello") in
  ignore (Io_sched.reset sched ~extent:loc.Locator.extent ~input:Dep.trivial);
  match Chunk_store.get cs loc with
  | Error (Chunk_store.Stale_locator _) -> ()
  | _ -> Alcotest.fail "stale locator must be rejected"

let test_allocation_moves_to_new_extent () =
  let _, _, _, cs = make () in
  (* Each ~90-byte payload occupies 5 pages (frame ≈ 138 bytes); an extent
     holds 8 pages, so each put opens or fills a fresh extent. The last
     free extent is held back as evacuation headroom. *)
  let extents = ref [] in
  for i = 0 to 3 do
    let loc, _ =
      ok
        (Chunk_store.put cs
           ~owner:(Chunk_format.Shard (Printf.sprintf "k%d" i))
           ~payload:(String.make 90 'x'))
    in
    if not (List.mem loc.Locator.extent !extents) then extents := loc.Locator.extent :: !extents
  done;
  Alcotest.(check bool) "multiple extents" true (List.length !extents >= 2)

let test_no_space () =
  let _, _, _, cs = make () in
  let rec fill n =
    if n = 0 then Alcotest.fail "disk never filled"
    else
      match Chunk_store.put cs ~owner:(Chunk_format.Shard "k") ~payload:(String.make 90 'x') with
      | Ok _ -> fill (n - 1)
      | Error Chunk_store.No_space -> ()
      | Error e -> Alcotest.failf "unexpected: %a" Chunk_store.pp_error e
  in
  fill 100

let test_oversized_chunk_rejected () =
  let _, _, _, cs = make () in
  match
    Chunk_store.put cs ~owner:(Chunk_format.Shard "k")
      ~payload:(String.make (2 * Disk.extent_size config) 'x')
  with
  | Error Chunk_store.No_space -> ()
  | _ -> Alcotest.fail "oversized chunk must be rejected"

let test_reclaim_evacuates_live_drops_dead () =
  let _, _, _, cs = make () in
  let live_loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "live") ~payload:"LIVE") in
  let _dead_loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "dead") ~payload:"DEAD") in
  let extent = live_loc.Locator.extent in
  let relocated = ref None in
  let reset_dep =
    ok
      (Chunk_store.reclaim cs ~extent ~index_basis:Dep.trivial
         ~classify:(fun owner _loc ->
           match owner with
           | Chunk_format.Shard "live" -> `Live
           | _ -> `Dead)
         ~relocate:(fun _owner ~old_loc:_ ~new_loc ~new_dep ->
           relocated := Some new_loc;
           new_dep))
  in
  ignore reset_dep;
  let count name = Obs.counter_value (Chunk_store.obs cs) name in
  Alcotest.(check int) "one evacuated" 1 (count "reclaim.evacuated");
  Alcotest.(check int) "one dropped" 1 (count "reclaim.dropped");
  match !relocated with
  | None -> Alcotest.fail "live chunk must be relocated"
  | Some new_loc ->
    Alcotest.(check bool) "moved off the extent" true (new_loc.Locator.extent <> extent);
    let chunk = ok (Chunk_store.get cs new_loc) in
    Alcotest.(check string) "payload preserved" "LIVE" chunk.Chunk_format.payload

let test_reclaim_aborts_on_read_error () =
  Faults.disable_all ();
  let disk, _, _, cs = make () in
  let loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "a") ~payload:"data") in
  Disk.fail_once disk ~extent:loc.Locator.extent;
  (match
     Chunk_store.reclaim cs ~extent:loc.Locator.extent ~index_basis:Dep.trivial
       ~classify:(fun _ _ -> `Live)
       ~relocate:(fun _ ~old_loc:_ ~new_loc:_ ~new_dep -> new_dep)
   with
  | Error (Chunk_store.Io _) -> ()
  | _ -> Alcotest.fail "correct reclamation aborts on read error");
  (* The extent was not reset: data still readable. *)
  let chunk = ok (Chunk_store.get cs loc) in
  Alcotest.(check string) "survived" "data" chunk.Chunk_format.payload

let test_f5_reclaim_resets_despite_read_error () =
  Faults.disable_all ();
  let disk, _, _, cs = make () in
  let loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "a") ~payload:"data") in
  Disk.fail_once disk ~extent:loc.Locator.extent;
  Faults.enable Faults.F5_reclaim_forgets_on_read_error;
  (match
     Chunk_store.reclaim cs ~extent:loc.Locator.extent ~index_basis:Dep.trivial
       ~classify:(fun _ _ -> `Live)
       ~relocate:(fun _ ~old_loc:_ ~new_loc:_ ~new_dep -> new_dep)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "buggy reclaim should proceed: %a" Chunk_store.pp_error e);
  Faults.disable Faults.F5_reclaim_forgets_on_read_error;
  (* The live chunk was forgotten: locator now stale, data gone. *)
  (match Chunk_store.get cs loc with
  | Error (Chunk_store.Stale_locator _) -> ()
  | _ -> Alcotest.fail "chunk should have been lost");
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F5_reclaim_forgets_on_read_error > 0)

let test_f1_off_by_one_drops_page_aligned_chunk () =
  Faults.disable_all ();
  let _, _, _, cs = make () in
  (* Craft a payload whose frame length is an exact page multiple:
     frame = 10 + (1+4+klen) + 32 + plen with key "k" -> 47 + plen.
     plen = 81 gives 128 = 4 pages. *)
  let payload = String.make 80 'y' in
  let loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "k") ~payload) in
  Alcotest.(check int) "frame is page multiple" 0 (loc.Locator.frame_len mod 32);
  Faults.enable Faults.F1_reclaim_off_by_one;
  ignore
    (ok
       (Chunk_store.reclaim cs ~extent:loc.Locator.extent ~index_basis:Dep.trivial
          ~classify:(fun _ _ -> `Live)
          ~relocate:(fun _ ~old_loc:_ ~new_loc:_ ~new_dep -> new_dep)));
  Faults.disable Faults.F1_reclaim_off_by_one;
  Alcotest.(check int) "nothing evacuated" 0
    (Obs.counter_value (Chunk_store.obs cs) "reclaim.evacuated");
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F1_reclaim_off_by_one > 0)

(* Property: random puts followed by a full-liveness reclamation keep
   every chunk readable with its exact payload; dead chunks are dropped. *)
let prop_reclaim_preserves_live =
  QCheck.Test.make ~name:"reclamation preserves live chunks" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, _, cs = make () in
      let rng = Rng.create (Int64.of_int seed) in
      (* a handful of chunks with varied sizes, some of them "dead" *)
      let chunks = ref [] in
      for i = 0 to 3 + Rng.int rng 4 do
        let payload = Bytes.to_string (Rng.bytes rng (Rng.int rng 120)) in
        let owner = Chunk_format.Shard (Printf.sprintf "k%d" i) in
        match Chunk_store.put cs ~owner ~payload with
        | Ok (loc, _) -> chunks := (owner, ref loc, payload, Rng.bool rng) :: !chunks
        | Error Chunk_store.No_space -> ()
        | Error e -> QCheck.Test.fail_reportf "put: %a" Chunk_store.pp_error e
      done;
      let classify owner loc =
        if
          List.exists
            (fun (o, l, _, live) -> live && Chunk_format.owner_equal o owner && Locator.equal !l loc)
            !chunks
        then `Live
        else `Dead
      in
      let relocate owner ~old_loc ~new_loc ~new_dep =
        List.iter
          (fun (o, l, _, _) ->
            if Chunk_format.owner_equal o owner && Locator.equal !l old_loc then l := new_loc)
          !chunks;
        new_dep
      in
      (* reclaim a random data extent that holds at least one chunk *)
      (match !chunks with
      | [] -> ()
      | (_, l0, _, _) :: _ -> (
        let extent = !l0.Locator.extent in
        match Chunk_store.reclaim cs ~extent ~index_basis:Dep.trivial ~classify ~relocate with
        | Ok _ -> ()
        | Error Chunk_store.No_space -> ()
        | Error e -> QCheck.Test.fail_reportf "reclaim: %a" Chunk_store.pp_error e));
      List.for_all
        (fun (owner, l, payload, live) ->
          if not live then true
          else
            match Chunk_store.get cs !l with
            | Ok c ->
              String.equal c.Chunk_format.payload payload
              && Chunk_format.owner_equal c.Chunk_format.owner owner
            | Error _ -> false)
        !chunks)

(* Property: chunk-level conformance against the chunk model, including
   the locator uniqueness invariant. *)
let prop_chunk_conformance =
  QCheck.Test.make ~name:"chunk store conforms to chunk model" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, _, cs = make () in
      let model = Model.Chunk_model.create () in
      let rng = Rng.create (Int64.of_int seed) in
      let live = ref [] in
      let ok = ref true in
      for i = 0 to 11 do
        if Rng.chance rng 0.7 || !live = [] then begin
          let payload = Bytes.to_string (Rng.bytes rng (Rng.int rng 100)) in
          match Chunk_store.put cs ~owner:(Chunk_format.Shard (string_of_int i)) ~payload with
          | Ok (loc, _) -> (
            match Model.Chunk_model.track model ~locator:loc ~payload with
            | Ok () -> live := loc :: !live
            | Error _ -> ok := false (* uniqueness violated *))
          | Error Chunk_store.No_space -> ()
          | Error _ -> ok := false
        end
        else begin
          let loc = Rng.pick_list rng !live in
          match Chunk_store.get cs loc, Model.Chunk_model.expected model ~locator:loc with
          | Ok c, Some expected -> if c.Chunk_format.payload <> expected then ok := false
          | Error _, _ | _, None -> ok := false
        end
      done;
      !ok)

let test_uuid_bias () =
  let _, _, _, cs = make () in
  Chunk_store.set_uuid_bias cs 1.0;
  let loc, _ = ok (Chunk_store.put cs ~owner:(Chunk_format.Shard "k") ~payload:"zz") in
  let chunk = ok (Chunk_store.get cs loc) in
  let u = Uuid.to_string chunk.Chunk_format.uuid in
  Alcotest.(check string) "uuid ends with magic" Chunk_format.magic
    (String.sub u (String.length u - 2) 2)

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "chunk"
    [
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "payload corruption" `Quick test_frame_detects_payload_corruption;
          Alcotest.test_case "truncation" `Quick test_frame_detects_truncation;
          Alcotest.test_case "uuid mismatch" `Quick test_frame_uuid_mismatch;
          Alcotest.test_case "decode matches the copying reference" `Quick
            test_decode_matches_reference;
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "put_batch roundtrip, one append" `Quick
            test_put_batch_roundtrip_one_append;
          Alcotest.test_case "put_batch shares group dep" `Quick test_put_batch_shares_group_dep;
          Alcotest.test_case "put_batch spills across extents" `Quick
            test_put_batch_spills_across_extents;
          Alcotest.test_case "put_batch oversized rejected" `Quick
            test_put_batch_oversized_rejected;
          Alcotest.test_case "persistence needs sb flush" `Quick
            test_put_becomes_persistent_after_sb_flush;
          Alcotest.test_case "stale locator" `Quick test_stale_locator_after_reset;
          Alcotest.test_case "allocation spreads" `Quick test_allocation_moves_to_new_extent;
          Alcotest.test_case "no space" `Quick test_no_space;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_chunk_rejected;
          Alcotest.test_case "uuid bias" `Quick test_uuid_bias;
          QCheck_alcotest.to_alcotest prop_chunk_conformance;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "evacuates live, drops dead" `Quick
            test_reclaim_evacuates_live_drops_dead;
          Alcotest.test_case "aborts on read error" `Quick test_reclaim_aborts_on_read_error;
          Alcotest.test_case "#5 resets despite read error" `Quick
            test_f5_reclaim_resets_despite_read_error;
          Alcotest.test_case "#1 off-by-one drops page-aligned chunk" `Quick
            test_f1_off_by_one_drops_page_aligned_chunk;
          QCheck_alcotest.to_alcotest prop_reclaim_preserves_live;
        ] );
    ]
