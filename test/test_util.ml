(* Unit and property tests for the util library: RNG determinism, CRC,
   UUIDs, the shared ddmin loop, and totality of the binary codecs. *)

open Util

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let va = Rng.int64 a and vb = Rng.int64 b in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal va vb))

let test_rng_weighted () =
  let rng = Rng.create 1L in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 2000 do
    let v = Rng.weighted rng [ (1, "a"); (9, "b") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let b = Option.value ~default:0 (Hashtbl.find_opt counts "b") in
  Alcotest.(check bool) "b dominates" true (b > 4 * a)

let test_rng_chance_extremes () =
  let rng = Rng.create 3L in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_crc_known () =
  (* Standard check value for "123456789". *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Crc32.digest_string "123456789")

let test_crc_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "slice" 0xCBF43926l (Crc32.digest_bytes ~off:2 ~len:9 b)

let test_crc_detects_flip () =
  let s = "hello world payload" in
  let crc = Crc32.digest_string s in
  let b = Bytes.of_string s in
  Bytes.set b 5 'X';
  Alcotest.(check bool) "differs" true (Crc32.digest_bytes b <> crc)

let test_uuid_roundtrip () =
  let rng = Rng.create 9L in
  let u = Uuid.generate rng in
  Alcotest.(check bool) "roundtrip" true
    (Uuid.equal u (Uuid.of_string_exn (Uuid.to_string u)));
  Alcotest.(check int) "hex length" 32 (String.length (Uuid.to_hex u));
  Alcotest.(check bool) "bad length rejected" true (Uuid.of_string "short" = None)

let test_codec_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xAB;
  Codec.Writer.u16 w 0xBEEF;
  Codec.Writer.u32 w 0xDEADBEEFl;
  Codec.Writer.u64 w 0x0123456789ABCDEFL;
  Codec.Writer.uint w 424242;
  Codec.Writer.lstring w "payload";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Result.get_ok (Codec.Reader.u8 r));
  Alcotest.(check int) "u16" 0xBEEF (Result.get_ok (Codec.Reader.u16 r));
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Result.get_ok (Codec.Reader.u32 r));
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Result.get_ok (Codec.Reader.u64 r));
  Alcotest.(check int) "uint" 424242 (Result.get_ok (Codec.Reader.uint r));
  Alcotest.(check string) "lstring" "payload" (Result.get_ok (Codec.Reader.lstring r));
  Alcotest.(check bool) "at end" true (Result.is_ok (Codec.Reader.expect_end r))

let test_codec_truncation () =
  let r = Codec.Reader.of_string "ab" in
  (match Codec.Reader.u32 r with
  | Error (Codec.Truncated { wanted = 4; available = 2 }) -> ()
  | _ -> Alcotest.fail "expected truncation error");
  let r = Codec.Reader.of_string "\xFF\xFF\xFF\x7F" in
  match Codec.Reader.lstring r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix must be rejected"

let test_codec_magic () =
  let r = Codec.Reader.of_string "XY" in
  match Codec.Reader.magic r "AB" with
  | Error (Codec.Bad_magic { expected = "AB"; found = "XY" }) -> ()
  | _ -> Alcotest.fail "expected bad magic"

(* Property: the reader never raises on arbitrary bytes (the paper's
   panic-freedom requirement for deserializers, section 7). *)
let prop_reader_total =
  QCheck.Test.make ~name:"reader total on arbitrary bytes" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let r = Codec.Reader.of_string s in
      let _ = Codec.Reader.u8 r in
      let _ = Codec.Reader.u16 r in
      let _ = Codec.Reader.lstring r in
      let _ = Codec.Reader.u64 r in
      true)

let prop_lstring_roundtrip =
  QCheck.Test.make ~name:"lstring roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.lstring w s;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.lstring r = Ok s)

let prop_crc_deterministic =
  QCheck.Test.make ~name:"crc deterministic" ~count:500
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s -> Crc32.digest_string s = Crc32.digest_string s)

(* Util.Ddmin replaced three copies of one loop; this is the copy that
   lived in the chaos campaign, kept as the reference it must match
   result for result and predicate call for predicate call. *)
let reference_ddmin ~still_fails ops =
  let current = ref ops in
  let chunk = ref (max 1 (List.length ops / 2)) in
  let continue_ = ref true in
  while !continue_ do
    let i = ref 0 in
    while !i < List.length !current do
      let candidate = List.filteri (fun j _ -> j < !i || j >= !i + !chunk) !current in
      if List.length candidate < List.length !current && still_fails candidate then
        current := candidate
      else i := !i + !chunk
    done;
    if !chunk = 1 then continue_ := false else chunk := !chunk / 2
  done;
  !current

(* Random lists of distinct elements with a monotone predicate: "still
   contains these culprits" (a subset of the list, possibly empty). *)
let prop_ddmin_matches_reference =
  QCheck.Test.make ~name:"ddmin matches the reference loop" ~count:500
    QCheck.(pair (int_bound 60) (small_list (int_bound 60)))
    (fun (n, picks) ->
      let xs = List.init n Fun.id in
      let culprits = List.sort_uniq compare (List.filter (fun p -> p < n) picks) in
      let run minimize =
        let calls = ref 0 in
        let still_fails ys =
          incr calls;
          List.for_all (fun c -> List.mem c ys) culprits
        in
        let out = minimize ~still_fails xs in
        (out, !calls)
      in
      let got, got_calls = run Ddmin.minimize in
      let want, want_calls = run reference_ddmin in
      got = want && got_calls = want_calls && got = culprits)

let test_coverage_basics () =
  Obs.Coverage.reset ();
  Alcotest.(check int) "zero before" 0 (Obs.Coverage.count "x");
  Obs.Coverage.hit "x";
  Obs.Coverage.hit "x";
  Obs.Coverage.hit "y";
  Alcotest.(check int) "counted" 2 (Obs.Coverage.count "x");
  Alcotest.(check (list (pair string int))) "snapshot sorted" [ ("x", 2); ("y", 1) ]
    (Obs.Coverage.snapshot ());
  Alcotest.(check (list string)) "blind spots" [ "z" ]
    (Obs.Coverage.blind_spots ~expected:[ "x"; "z" ] ());
  Obs.Coverage.reset ();
  Alcotest.(check int) "reset" 0 (Obs.Coverage.count "x")

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc_known;
          Alcotest.test_case "slice" `Quick test_crc_slice;
          Alcotest.test_case "detects bit flip" `Quick test_crc_detects_flip;
          QCheck_alcotest.to_alcotest prop_crc_deterministic;
        ] );
      ("uuid", [ Alcotest.test_case "roundtrip" `Quick test_uuid_roundtrip ]);
      ("ddmin", [ QCheck_alcotest.to_alcotest prop_ddmin_matches_reference ]);
      ("coverage", [ Alcotest.test_case "basics" `Quick test_coverage_basics ]);
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "magic" `Quick test_codec_magic;
          QCheck_alcotest.to_alcotest prop_reader_total;
          QCheck_alcotest.to_alcotest prop_lstring_roundtrip;
        ] );
    ]
