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

(* The splitmix64 stream is part of every seeded schedule and verdict:
   these are its first values, as the generator has always drawn them. *)
let test_rng_stream_pinned () =
  let first8 seed =
    let r = Rng.create seed in
    List.init 8 (fun _ -> Rng.int64 r)
  in
  Alcotest.(check (list int64)) "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
      -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
      3207296026000306913L; -4214222208109204676L ]
    (first8 0L);
  Alcotest.(check (list int64)) "seed 1"
    [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
      8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
      -2262517385565684571L; -8797857673641491083L ]
    (first8 1L);
  Alcotest.(check (list int64)) "seed 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L ]
    (first8 42L);
  Alcotest.(check (list int64)) "seed 0x5EED_CAFE"
    [ 4839992929902016533L; -5749855478143838530L; -2499282993978686212L;
      3115517747291210547L; -1460459064231100383L; 8225877385692463310L;
      6065135524253103467L; -2824135168967517471L ]
    (first8 0x5EED_CAFEL);
  let r = Rng.create 7L in
  Alcotest.(check (list int)) "int draws" [ 1; 1; 336; 368050; 2086519961375180918 ]
    (List.map (Rng.int r) [ 2; 10; 1000; 1_000_000; max_int ]);
  Alcotest.(check (list (float 0.0))) "float draws"
    [ 0x1.fed5f4365df54p-3; 0x1.df2f1284cf0b4p-2; 0x1.4ff35944f40aep-2; 0x1.12f603d4ca83p-3 ]
    (List.init 4 (fun _ -> Rng.float r 1.0))

let test_rng_copy_independent () =
  let a = Rng.create 42L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let next = Rng.int64 (Rng.copy a) in
  for _ = 1 to 5 do
    ignore (Rng.int64 b)
  done;
  Alcotest.(check int64) "advancing a copy leaves the original" next (Rng.int64 a)

let test_rng_draws_allocate_nothing () =
  let r = Rng.create 3L in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    sink := !sink + Rng.int r 1000;
    if Rng.chance r 0.5 then incr sink;
    if Rng.bool r then incr sink
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. before)

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

(* The reader the in-place one replaced: every field copied out with
   [String.sub] first. Kept as the reference for values, errors and the
   cursor position. *)
module Copying_reader = struct
  type t = { data : string; mutable pos : int }

  let remaining t = String.length t.data - t.pos

  let take t n =
    if n < 0 then Error (Codec.Invalid "negative length")
    else if remaining t < n then Error (Codec.Truncated { wanted = n; available = remaining t })
    else begin
      let s = String.sub t.data t.pos n in
      t.pos <- t.pos + n;
      Ok s
    end

  let u8 t = Result.map (fun s -> Char.code s.[0]) (take t 1)
  let u16 t = Result.map (fun s -> String.get_uint16_le s 0) (take t 2)
  let u32 t = Result.map (fun s -> String.get_int32_le s 0) (take t 4)
  let u64 t = Result.map (fun s -> String.get_int64_le s 0) (take t 8)

  let uint t =
    Result.bind (u64 t) (fun v ->
        if v < 0L || v > Int64.of_int max_int then Error (Codec.Invalid "u64 out of int range")
        else Ok (Int64.to_int v))

  let lstring ?(max = 1 lsl 30) t =
    Result.bind (u32 t) (fun len32 ->
        let len = Int32.to_int len32 in
        if len < 0 || len > max then Error (Codec.Invalid "length prefix out of range")
        else take t len)

  let magic t expected =
    Result.bind (take t (String.length expected)) (fun found ->
        if String.equal found expected then Ok ()
        else Error (Codec.Bad_magic { expected; found }))

  let expect_end t =
    if remaining t = 0 then Ok () else Error (Codec.Invalid "trailing bytes after value")
end

type read_op =
  | U8
  | U16
  | U32
  | U64
  | Uint
  | Raw of int
  | Skip of int
  | Lstring of int option
  | Magic of string
  | Expect_end

let pp_read_op = function
  | U8 -> "u8"
  | U16 -> "u16"
  | U32 -> "u32"
  | U64 -> "u64"
  | Uint -> "uint"
  | Raw n -> Printf.sprintf "raw %d" n
  | Skip n -> Printf.sprintf "skip %d" n
  | Lstring None -> "lstring"
  | Lstring (Some m) -> Printf.sprintf "lstring ~max:%d" m
  | Magic m -> Printf.sprintf "magic %S" m
  | Expect_end -> "expect_end"

(* One read on each reader, its value rendered as a string. *)
let read_both r c op =
  let show f = Result.map f in
  let unit = show (fun () -> "") in
  match op with
  | U8 -> (show string_of_int (Codec.Reader.u8 r), show string_of_int (Copying_reader.u8 c))
  | U16 -> (show string_of_int (Codec.Reader.u16 r), show string_of_int (Copying_reader.u16 c))
  | U32 -> (show Int32.to_string (Codec.Reader.u32 r), show Int32.to_string (Copying_reader.u32 c))
  | U64 -> (show Int64.to_string (Codec.Reader.u64 r), show Int64.to_string (Copying_reader.u64 c))
  | Uint -> (show string_of_int (Codec.Reader.uint r), show string_of_int (Copying_reader.uint c))
  | Raw n -> (Codec.Reader.raw r n, Copying_reader.take c n)
  | Skip n -> (unit (Codec.Reader.skip r n), show (fun _ -> "") (Copying_reader.take c n))
  | Lstring max -> (Codec.Reader.lstring ?max r, Copying_reader.lstring ?max c)
  | Magic m -> (unit (Codec.Reader.magic r m), unit (Copying_reader.magic c m))
  | Expect_end -> (unit (Codec.Reader.expect_end r), unit (Copying_reader.expect_end c))

let arb_reads =
  let open QCheck.Gen in
  (* A small alphabet, so that length prefixes are often small and
     magics often match. *)
  let byte =
    frequencyl
      [ (6, '\000'); (1, '\001'); (1, '\002'); (1, '\005'); (1, 'A'); (1, 'B'); (1, '\127');
        (1, '\128'); (1, '\255') ]
  in
  let op =
    frequency
      [
        (2, oneofl [ U8; U16; U32; U64; Uint; Expect_end ]);
        (1, map (fun n -> Raw n) (-2 -- 10));
        (1, map (fun n -> Skip n) (-2 -- 10));
        (2, map (fun m -> Lstring m) (opt (0 -- 4)));
        (1, map (fun m -> Magic m) (oneofl [ ""; "A"; "AB"; "BA"; "\000\001" ]));
      ]
  in
  let gen =
    string_size ~gen:byte (0 -- 48) >>= fun data ->
    pair (0 -- String.length data) (list_size (0 -- 12) op) >|= fun (pos, ops) -> (data, pos, ops)
  in
  QCheck.make gen ~print:(fun (data, pos, ops) ->
      Printf.sprintf "%S from %d: %s" data pos (String.concat "; " (List.map pp_read_op ops)))

(* Property: the in-place reader gives the copying reader's value or
   error, and leaves the cursor where it does, after every read. *)
let prop_reader_matches_copying_reference =
  QCheck.Test.make ~name:"reader matches the copying reference" ~count:2000 arb_reads
    (fun (data, pos, ops) ->
      let r = Codec.Reader.of_string ~pos data in
      let c = { Copying_reader.data; pos } in
      List.for_all
        (fun op ->
          let got, want = read_both r c op in
          got = want
          && Codec.Reader.pos r = c.Copying_reader.pos
          && Codec.Reader.remaining r = Copying_reader.remaining c)
        ops)

let prop_lstring_roundtrip =
  QCheck.Test.make ~name:"lstring roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.lstring w s;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.lstring r = Ok s)

(* The byte-at-a-time loop the slicing-by-8 CRC replaced, kept as the
   reference it must match digest for digest. *)
let reference_crc b off len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let random_bytes seed n =
  let rng = Rng.create seed in
  Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

(* Every alignment of the eight-byte loop against every tail length. *)
let test_crc_matches_reference () =
  let b = random_bytes 23L 96 in
  for off = 0 to 8 do
    for len = 0 to 70 do
      Alcotest.(check int32)
        (Printf.sprintf "off %d len %d" off len)
        (reference_crc b off len) (Crc32.digest_bytes ~off ~len b);
      Alcotest.(check int32)
        (Printf.sprintf "string off %d len %d" off len)
        (reference_crc b off len)
        (Crc32.digest_string ~off ~len (Bytes.to_string b))
    done
  done

let crc_buffer = random_bytes 64L ((64 * 1024) + 64)

let prop_crc_matches_reference_on_slices =
  QCheck.Test.make ~name:"crc matches the byte-wise reference on slices up to 64 KiB" ~count:200
    QCheck.(pair (int_bound 63) (int_bound (64 * 1024)))
    (fun (off, len) ->
      Crc32.digest_bytes ~off ~len crc_buffer = reference_crc crc_buffer off len)

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
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
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
          Alcotest.test_case "matches the byte-wise reference" `Quick test_crc_matches_reference;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference_on_slices;
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
          QCheck_alcotest.to_alcotest prop_reader_matches_copying_reference;
        ] );
    ]
