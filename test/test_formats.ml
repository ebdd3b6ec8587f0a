(* Pins for the length-prefixed formats: the wire protocol
   ([Rpc.Message]) and the LSM run format ([Lsm.Run], [Lsm.Entry]).

   - A golden digest over the encodings of a fixed corpus, so any change
     to a byte of any format fails here. A deliberate format change must
     re-pin the digest and say so.
   - A differential check of the decoders against [Ref], a reference copy
     of the decoders as written before every length-prefixed list went
     through [Codec.Reader.list]: same value, or the same error, on
     arbitrary bytes, on valid encodings with a count field overwritten,
     and on valid encodings cut at every byte. *)

open Util
module M = Rpc.Message

(* {1 Reference decoders} *)

module Ref = struct
  open Rpc.Message

  let max_keys = 1 lsl 20
  let max_metrics = 1 lsl 16
  let max_labels = 64
  let magic = "SR"

  let decode_opt_string r =
    let open Codec.Syntax in
    let* present = Codec.Reader.u8 r in
    match present with
    | 0 -> Ok None
    | 1 ->
      let+ s = Codec.Reader.lstring r in
      Some s
    | _ -> Error (Codec.Invalid "option presence flag")

  let decode_strings r =
    let open Codec.Syntax in
    let* count32 = Codec.Reader.u32 r in
    let count = Int32.to_int count32 in
    if count < 0 || count > max_keys then Error (Codec.Invalid "string count")
    else begin
      let rec go acc i =
        if i = count then Ok (List.rev acc)
        else
          let* s = Codec.Reader.lstring r in
          go (s :: acc) (i + 1)
      in
      go [] 0
    end

  let decode_metric r =
    let open Codec.Syntax in
    let* metric_name = Codec.Reader.lstring r in
    let* nlabels = Codec.Reader.u8 r in
    if nlabels > max_labels then Error (Codec.Invalid "label count")
    else begin
      let rec labels acc i =
        if i = nlabels then Ok (List.rev acc)
        else
          let* k = Codec.Reader.lstring r in
          let* v = Codec.Reader.lstring r in
          labels ((k, v) :: acc) (i + 1)
      in
      let* labels = labels [] 0 in
      let+ bits = Codec.Reader.u64 r in
      { metric_name; labels; value = Int64.float_of_bits bits }
    end

  let decode_metrics r =
    let open Codec.Syntax in
    let* count32 = Codec.Reader.u32 r in
    let count = Int32.to_int count32 in
    if count < 0 || count > max_metrics then Error (Codec.Invalid "metric count")
    else begin
      let rec go acc i =
        if i = count then Ok (List.rev acc)
        else
          let* m = decode_metric r in
          go (m :: acc) (i + 1)
      in
      go [] 0
    end

  let decode_batch_op r =
    let open Codec.Syntax in
    let* kind = Codec.Reader.u8 r in
    match kind with
    | 0 ->
      let* key = Codec.Reader.lstring r in
      let+ value = Codec.Reader.lstring r in
      Batch_put { key; value }
    | 1 ->
      let+ key = Codec.Reader.lstring r in
      Batch_delete { key }
    | _ -> Error (Codec.Invalid "batch op kind")

  let decode_batch_ops r =
    let open Codec.Syntax in
    let* count32 = Codec.Reader.u32 r in
    let count = Int32.to_int count32 in
    if count < 0 || count > max_batch_ops then Error (Codec.Invalid "batch op count")
    else begin
      let rec go acc i =
        if i = count then Ok (List.rev acc)
        else
          let* op = decode_batch_op r in
          go (op :: acc) (i + 1)
      in
      go [] 0
    end

  let decode_statuses r =
    let open Codec.Syntax in
    let* count32 = Codec.Reader.u32 r in
    let count = Int32.to_int count32 in
    if count < 0 || count > max_batch_ops then Error (Codec.Invalid "status count")
    else begin
      let rec go acc i =
        if i = count then Ok (List.rev acc)
        else
          let* tag = Codec.Reader.u8 r in
          match tag with
          | 0 -> go (Op_ok :: acc) (i + 1)
          | 1 ->
            let* msg = Codec.Reader.lstring r in
            go (Op_error msg :: acc) (i + 1)
          | 2 ->
            let* acked = Codec.Reader.uint r in
            go (Op_quorum { acked } :: acc) (i + 1)
          | _ -> Error (Codec.Invalid "op status tag")
      in
      go [] 0
    end

  let decode_request s =
    let open Codec.Syntax in
    let r = Codec.Reader.of_string s in
    let* () = Codec.Reader.magic r magic in
    let* tag = Codec.Reader.u8 r in
    let* req =
      match tag with
      | 0 ->
        let* key = Codec.Reader.lstring r in
        let+ value = Codec.Reader.lstring r in
        Put { key; value }
      | 1 ->
        let+ key = Codec.Reader.lstring r in
        Get { key }
      | 2 ->
        let+ key = Codec.Reader.lstring r in
        Delete { key }
      | 3 -> Ok List
      | 4 ->
        let+ disk = Codec.Reader.uint r in
        Remove_disk { disk }
      | 5 ->
        let+ disk = Codec.Reader.uint r in
        Return_disk { disk }
      | 6 ->
        let+ keys = decode_strings r in
        Bulk_delete { keys }
      | 7 -> Ok Node_stats
      | 8 ->
        let* key = Codec.Reader.lstring r in
        let+ to_disk = Codec.Reader.uint r in
        Migrate { key; to_disk }
      | 9 ->
        let+ ops = decode_batch_ops r in
        Batch_request { ops }
      | 10 ->
        let* lo = decode_opt_string r in
        let* hi = decode_opt_string r in
        let* after = decode_opt_string r in
        let* max_results = Codec.Reader.uint r in
        if max_results < 0 || max_results > max_scan_items then
          Error (Codec.Invalid "scan max_results")
        else Ok (Scan_request { lo; hi; after; max_results })
      | _ -> Error (Codec.Invalid "request tag")
    in
    let* () = Codec.Reader.expect_end r in
    Ok req

  let decode_response s =
    let open Codec.Syntax in
    let r = Codec.Reader.of_string s in
    let* () = Codec.Reader.magic r magic in
    let* tag = Codec.Reader.u8 r in
    let* resp =
      match tag with
      | 0 -> Ok Ack
      | 1 -> (
        let* present = Codec.Reader.u8 r in
        match present with
        | 0 -> Ok (Value None)
        | 1 ->
          let+ v = Codec.Reader.lstring r in
          Value (Some v)
        | _ -> Error (Codec.Invalid "value presence flag"))
      | 2 ->
        let+ keys = decode_strings r in
        Keys keys
      | 3 ->
        let* disks = Codec.Reader.uint r in
        let* in_service = Codec.Reader.uint r in
        let* keys = Codec.Reader.uint r in
        let+ metrics = decode_metrics r in
        Stats { disks; in_service; keys; metrics }
      | 4 ->
        let+ msg = Codec.Reader.lstring r in
        Error_response msg
      | 5 ->
        let+ statuses = decode_statuses r in
        Batch_response { statuses }
      | 6 ->
        let* acked = Codec.Reader.uint r in
        let* count32 = Codec.Reader.u32 r in
        let count = Int32.to_int count32 in
        if count < 0 || count > max_lagging_nodes then Error (Codec.Invalid "lagging count")
        else begin
          let rec go acc i =
            if i = count then Ok (Quorum_ack { acked; lagging = List.rev acc })
            else
              let* node = Codec.Reader.uint r in
              go (node :: acc) (i + 1)
          in
          go [] 0
        end
      | 7 -> (
        let* more_flag = Codec.Reader.u8 r in
        let* more =
          match more_flag with
          | 0 -> Ok false
          | 1 -> Ok true
          | _ -> Error (Codec.Invalid "scan more flag")
        in
        let* count32 = Codec.Reader.u32 r in
        let count = Int32.to_int count32 in
        if count < 0 || count > max_scan_items then Error (Codec.Invalid "scan item count")
        else begin
          let rec go acc i =
            if i = count then Ok (Scan_response { items = List.rev acc; more })
            else
              let* k = Codec.Reader.lstring r in
              let* v = Codec.Reader.lstring r in
              go ((k, v) :: acc) (i + 1)
          in
          go [] 0
        end)
      | _ -> Error (Codec.Invalid "response tag")
    in
    let* () = Codec.Reader.expect_end r in
    Ok resp

  let entry_decode r =
    let open Codec.Syntax in
    let* tag = Codec.Reader.u8 r in
    match tag with
    | 0 ->
      let* count32 = Codec.Reader.u32 r in
      let count = Int32.to_int count32 in
      if count < 0 || count > 1 lsl 20 then Error (Codec.Invalid "locator count")
      else begin
        let rec go acc i =
          if i = count then Ok (Lsm.Entry.Put (List.rev acc))
          else
            let* loc = Chunk.Locator.decode r in
            go (loc :: acc) (i + 1)
        in
        go [] 0
      end
    | 1 -> Ok Lsm.Entry.Tombstone
    | _ -> Error (Codec.Invalid "entry tag")

  let run_decode s =
    let open Codec.Syntax in
    let r = Codec.Reader.of_string s in
    let* count32 = Codec.Reader.u32 r in
    let count = Int32.to_int count32 in
    if count < 0 || count > 1 lsl 24 then Error (Codec.Invalid "run entry count")
    else begin
      let rec go acc i =
        if i = count then
          let* () = Codec.Reader.expect_end r in
          Ok (Array.of_list (List.rev acc))
        else
          let* k = Codec.Reader.lstring r in
          let* e = entry_decode r in
          go ((k, e) :: acc) (i + 1)
      in
      let* arr = go [] 0 in
      let ok = ref true in
      for i = 1 to Array.length arr - 1 do
        if String.compare (fst arr.(i - 1)) (fst arr.(i)) >= 0 then ok := false
      done;
      if !ok then Ok arr else Error (Codec.Invalid "run keys not strictly sorted")
    end
end

(* {1 Corpus} *)

let loc k = { Chunk.Locator.extent = k mod 7; epoch = k / 3; off = k * 4096; frame_len = 40 + k }

let metric ?(labels = []) name value = { M.metric_name = name; labels; value }

let requests =
  [
    M.Put { key = "k"; value = "v" };
    M.Put { key = ""; value = "" };
    M.Get { key = "some key" };
    M.Delete { key = "k" };
    M.List;
    M.Remove_disk { disk = 3 };
    M.Return_disk { disk = 0 };
    M.Bulk_delete { keys = [] };
    M.Bulk_delete { keys = [ "a"; ""; "ccc" ] };
    M.Migrate { key = "shard"; to_disk = 2 };
    M.Node_stats;
    M.Batch_request { ops = [] };
    M.Batch_request
      {
        ops =
          [
            M.Batch_put { key = "a"; value = "1" };
            M.Batch_delete { key = "b" };
            M.Batch_put { key = ""; value = "" };
          ];
      };
    M.Scan_request { lo = None; hi = None; after = None; max_results = 10 };
    M.Scan_request { lo = Some "a"; hi = Some "z"; after = Some "m"; max_results = 1 };
    M.Scan_request { lo = Some ""; hi = None; after = None; max_results = 0 };
  ]

let responses =
  [
    M.Ack;
    M.Value None;
    M.Value (Some "payload");
    M.Keys [];
    M.Keys [ "a"; "b"; "" ];
    M.Stats { disks = 4; in_service = 3; keys = 17; metrics = [] };
    M.Stats
      {
        disks = 2;
        in_service = 1;
        keys = 0;
        metrics =
          [
            metric "iosched.pending" 0.1;
            metric ~labels:[ ("disk", "0") ] "cache.hit" 42.0;
            metric ~labels:[ ("disk", "1"); ("kind", "put"); ("", "") ] "store.bytes.sum" 4097.25;
            metric "nan" Float.nan;
          ];
      };
    M.Error_response "boom";
    M.Batch_response { statuses = [] };
    M.Batch_response
      { statuses = [ M.Op_ok; M.Op_error "no"; M.Op_quorum { acked = 2 }; M.Op_error "" ] };
    M.Quorum_ack { acked = 3; lagging = [] };
    M.Quorum_ack { acked = 1; lagging = [ 0; 2; 5 ] };
    M.Scan_response { items = []; more = false };
    M.Scan_response { items = [ ("a", "1"); ("b", ""); ("c", "three") ]; more = true };
  ]

let entries =
  [
    Lsm.Entry.Tombstone;
    Lsm.Entry.Put [];
    Lsm.Entry.Put [ loc 1 ];
    Lsm.Entry.Put [ loc 2; loc 3; loc 5 ];
  ]

let runs =
  [
    Lsm.Run.of_pairs [];
    Lsm.Run.of_pairs [ ("only", Lsm.Entry.Put [ loc 9 ]) ];
    Lsm.Run.of_pairs
      [
        ("", Lsm.Entry.Tombstone);
        ("a", Lsm.Entry.Put [ loc 1; loc 2 ]);
        ("b", Lsm.Entry.Tombstone);
        ("c", Lsm.Entry.Put []);
        ("d", Lsm.Entry.Put [ loc 4; loc 6; loc 8 ]);
      ];
  ]

let encode_entry e =
  let w = Codec.Writer.create () in
  Lsm.Entry.encode w e;
  Codec.Writer.contents w

(* Every encoding of the corpus, labelled by format. *)
let corpus =
  List.map (fun r -> (`Request, M.encode_request r)) requests
  @ List.map (fun r -> (`Response, M.encode_response r)) responses
  @ List.map (fun e -> (`Entry, encode_entry e)) entries
  @ List.map (fun r -> (`Run, Lsm.Run.encode r)) runs

(* {1 Golden digest} *)

(* Pinned over the corpus above. A format change moves it: re-pin on
   purpose and say so. *)
let golden = "46f8a4fdaeb600af9fc37375809d8a2d"

let test_golden () =
  let framed =
    List.map (fun (_, s) -> Printf.sprintf "%d:%s" (String.length s) s) corpus
    |> String.concat ""
  in
  Alcotest.(check string) "format digest" golden (Digest.to_hex (Digest.string framed))

(* {1 Differential} *)

(* [compare], not [=]: a NaN metric value must compare equal to itself. *)
let same a b = compare a b = 0

let differs kind s =
  match kind with
  | `Request -> not (same (M.decode_request s) (Ref.decode_request s))
  | `Response -> not (same (M.decode_response s) (Ref.decode_response s))
  | `Run -> not (same (Result.map Lsm.Run.to_list (Lsm.Run.decode s))
                   (Result.map Array.to_list (Ref.run_decode s)))
  | `Entry ->
    (* An entry is decoded inside a larger record: the cursor must stop
       where the reference stops. *)
    let r1 = Codec.Reader.of_string s and r2 = Codec.Reader.of_string s in
    let a = Lsm.Entry.decode r1 and b = Ref.entry_decode r2 in
    not (same (a, Codec.Reader.pos r1) (b, Codec.Reader.pos r2))

let kinds = [ `Request; `Response; `Run; `Entry ]

let kind_name = function
  | `Request -> "request"
  | `Response -> "response"
  | `Run -> "run"
  | `Entry -> "entry"

let check_same kind s =
  if differs kind s then
    QCheck.Test.fail_reportf "%s decoder differs from the reference on %S" (kind_name kind) s

let prop_arbitrary_bytes =
  QCheck.Test.make ~name:"decoders match the reference on arbitrary bytes" ~count:3000
    QCheck.(string_of_size Gen.(0 -- 96))
    (fun s ->
      List.iter (fun kind -> check_same kind s) kinds;
      true)

(* Arbitrary bodies behind a valid magic and tag reach every list decoder
   of the wire protocol; a small count prefix does the same for runs. *)
let prop_tagged_bytes =
  QCheck.Test.make ~name:"decoders match the reference behind a valid header" ~count:3000
    QCheck.(pair (int_bound 11) (string_of_size Gen.(0 -- 96)))
    (fun (tag, body) ->
      let framed = "SR" ^ String.make 1 (Char.chr tag) ^ body in
      check_same `Request framed;
      check_same `Response framed;
      let count = String.init 4 (fun i -> if i = 0 then Char.chr (tag land 3) else '\000') in
      check_same `Run (count ^ body);
      check_same `Entry (String.make 1 (Char.chr (tag land 1)) ^ count ^ body);
      true)

(* Random byte flips of valid encodings. *)
let prop_mutated_corpus =
  QCheck.Test.make ~name:"decoders match the reference on mutated encodings" ~count:3000
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 255))
    (fun (which, at, byte) ->
      let kind, s = List.nth corpus (which mod List.length corpus) in
      let b = Bytes.of_string s in
      if Bytes.length b > 0 then Bytes.set b (at mod Bytes.length b) (Char.chr byte);
      check_same kind (Bytes.to_string b);
      true)

(* Every list bound of the formats, on either side of it. *)
let count_values =
  let bounds = [ 1 lsl 20; 1 lsl 16; 4096; 1 lsl 24; 64 ] in
  [ -1; 0; 1 lsl 31 ] @ List.concat_map (fun m -> [ m; m + 1 ]) bounds

(* Overwrite a count-sized field at every offset of every valid encoding
   (so every list's count field among them) with every bound value, and
   cut every encoding at every byte. *)
let test_counts_and_cuts () =
  let failures = ref 0 in
  let check kind s =
    if differs kind s then begin
      incr failures;
      if !failures <= 5 then Printf.printf "%s differs on %S\n" (kind_name kind) s
    end
  in
  List.iter
    (fun (kind, s) ->
      let n = String.length s in
      for cut = 0 to n - 1 do
        check kind (String.sub s 0 cut)
      done;
      for off = 0 to n - 1 do
        List.iter
          (fun v ->
            let b = Bytes.of_string s in
            Bytes.set_uint8 b off (v land 0xFF);
            check kind (Bytes.to_string b);
            if off + 4 <= n then begin
              let b = Bytes.of_string s in
              Bytes.set_int32_le b off (Int32.of_int v);
              check kind (Bytes.to_string b)
            end;
            if off + 8 <= n then begin
              let b = Bytes.of_string s in
              Bytes.set_int64_le b off (Int64.of_int v);
              check kind (Bytes.to_string b)
            end)
          count_values
      done)
    corpus;
  Alcotest.(check int) "inputs where a decoder differs from the reference" 0 !failures

(* The corpus itself decodes, and to the values it was built from. *)
let test_corpus_roundtrips () =
  List.iter
    (fun r -> Alcotest.(check bool) "request" true (M.decode_request (M.encode_request r) = Ok r))
    requests;
  List.iter
    (fun r ->
      Alcotest.(check bool) "response" true
        (same (M.decode_response (M.encode_response r)) (Ok r)))
    responses;
  List.iter
    (fun r ->
      Alcotest.(check bool) "run" true
        (same (Result.map Lsm.Run.to_list (Lsm.Run.decode (Lsm.Run.encode r)))
           (Ok (Lsm.Run.to_list r))))
    runs

let () =
  Alcotest.run "formats"
    [
      ( "golden",
        [
          Alcotest.test_case "corpus roundtrips" `Quick test_corpus_roundtrips;
          Alcotest.test_case "format digest pinned" `Quick test_golden;
        ] );
      ( "differential",
        [
          Alcotest.test_case "count fields and cuts" `Quick test_counts_and_cuts;
          QCheck_alcotest.to_alcotest prop_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_tagged_bytes;
          QCheck_alcotest.to_alcotest prop_mutated_corpus;
        ] );
    ]
