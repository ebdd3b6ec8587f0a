(* Tests for the generation-stamped record log: append/recover cycles,
   extent switching, torn-tail handling. *)

open Util

let config = { Disk.extent_count = 4; pages_per_extent = 4; page_size = 32 }

let make () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:2L disk in
  (disk, sched, Logroll.create sched ~extents:(0, 1) ~name:"test")

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "logroll error: %a" Logroll.pp_error e

let sched_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "sched error: %a" Io_sched.pp_error e

(* A whole-record writer: the payload ignores whether it opens an extent. *)
let append roll p = Logroll.append roll ~payload:(fun ~opens:_ -> p) ~input:Dep.trivial

(* The newest record of the recovered chain, as the metadata roll adopts it. *)
let recover roll = match List.rev (Logroll.recover roll) with [] -> None | r :: _ -> Some r

let test_append_recover () =
  let _, sched, roll = make () in
  ignore (ok (append roll "one"));
  ignore (ok (append roll "two"));
  sched_ok (Io_sched.flush sched);
  match recover roll with
  | Some (2, "two") -> ()
  | Some (g, p) -> Alcotest.failf "wrong record: gen %d payload %S" g p
  | None -> Alcotest.fail "no record recovered"

let test_recover_empty () =
  let _, _, roll = make () in
  Alcotest.(check bool) "empty" true (recover roll = None)

let test_chain_orders_records () =
  (* Generation g+1 never persists without generation g: the chain makes a
     crash state with only the newer record impossible. *)
  let attempt seed =
    let _, sched, roll = make () in
    ignore (ok (append roll "g1"));
    ignore (ok (append roll "g2"));
    let rng = Rng.create (Int64.of_int seed) in
    ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:false);
    match recover roll with
    | None -> ()
    | Some (g, p) ->
      let expected = if g = 1 then "g1" else "g2" in
      Alcotest.(check string) "payload matches generation" expected p
  in
  for seed = 0 to 100 do
    attempt seed
  done

let test_extent_switch () =
  let _, sched, roll = make () in
  (* Fill with enough records to force at least one switch. *)
  let payload = String.make 40 'p' in
  for _ = 1 to 8 do
    ignore (ok (append roll payload))
  done;
  Alcotest.(check bool) "switched" true (Logroll.switches roll > 0);
  sched_ok (Io_sched.flush sched);
  match recover roll with
  | Some (8, p) -> Alcotest.(check string) "latest survives switches" payload p
  | Some (g, _) -> Alcotest.failf "wrong generation %d" g
  | None -> Alcotest.fail "no record"

let test_torn_tail_forces_switch () =
  (* Crash drops a record mid-extent; the next append must go to the
     sibling so future scans cannot be blinded by the torn bytes. *)
  let _, sched, roll = make () in
  ignore (ok (append roll "solid"));
  sched_ok (Io_sched.flush sched);
  ignore (ok (append roll "torn"));
  let rng = Rng.create 3L in
  ignore (Io_sched.crash sched ~rng ~persist_probability:0.0 ~split_pages:false);
  (match recover roll with
  | Some (1, "solid") -> ()
  | other ->
    Alcotest.failf "unexpected recovery: %s"
      (match other with
      | None -> "none"
      | Some (g, p) -> Printf.sprintf "gen %d payload %S" g p));
  ignore (ok (append roll "after"));
  sched_ok (Io_sched.flush sched);
  match recover roll with
  | Some (2, "after") -> ()
  | _ -> Alcotest.fail "record appended after torn tail must be recoverable"

let test_record_too_large () =
  let _, _, roll = make () in
  let huge = String.make (2 * Disk.extent_size config) 'x' in
  match append roll huge with
  | Error (Logroll.Record_too_large _) -> ()
  | _ -> Alcotest.fail "oversized record must be rejected"

(* A writer learns which records open an extent: the first on an empty
   extent, one that does not fit the rest of the active extent (asked
   again with [~opens:true] and written to the sibling), and the first
   after a torn tail. Recovery returns the chain on the extent holding the
   newest generation, oldest first. *)
let test_opens_and_chain () =
  let _, sched, roll = make () in
  let asked = ref [] in
  let asks p =
    asked := [];
    let payload ~opens =
      asked := opens :: !asked;
      p
    in
    ignore (ok (Logroll.append roll ~payload ~input:Dep.trivial));
    List.rev !asked
  in
  let chain = Alcotest.(list (pair int string)) in
  Alcotest.(check (list bool)) "first record opens" [ true ] (asks "r1");
  (* 20-B records: six fill 120 B of a 128-B extent. *)
  List.iter
    (fun p -> Alcotest.(check (list bool)) "later records do not" [ false ] (asks p))
    [ "r2"; "r3"; "r4"; "r5"; "r6" ];
  Alcotest.(check chain) "one extent's chain"
    (List.init 6 (fun i -> (i + 1, Printf.sprintf "r%d" (i + 1))))
    (Logroll.recover roll);
  Alcotest.(check (list bool)) "a full extent asks again" [ false; true ] (asks "r7");
  Alcotest.(check (list bool)) "then deltas again" [ false ] (asks "r8");
  sched_ok (Io_sched.flush sched);
  Alcotest.(check chain) "the sibling's chain" [ (7, "r7"); (8, "r8") ] (Logroll.recover roll);
  ignore (sched_ok (Io_sched.append sched ~extent:1 ~data:"torn" ~input:Dep.trivial));
  Alcotest.(check chain) "chain stops at a torn tail" [ (7, "r7"); (8, "r8") ]
    (Logroll.recover roll);
  Alcotest.(check (list bool)) "a torn tail opens the sibling" [ true ] (asks "r9");
  sched_ok (Io_sched.flush sched);
  Alcotest.(check chain) "after the torn tail" [ (9, "r9") ] (Logroll.recover roll)

(* Property: after any sequence of appends, a full flush, and a crash with
   arbitrary persistence, recovery returns the highest durable generation
   and its exact payload. *)
let prop_recover_newest =
  QCheck.Test.make ~name:"recovery returns newest durable record" ~count:200
    QCheck.(pair (int_bound 10) (int_bound 10_000))
    (fun (n, seed) ->
      let _, sched, roll = make () in
      let payloads = List.init (n + 1) (fun i -> Printf.sprintf "payload-%d" i) in
      List.iter
        (fun p -> ignore (ok (append roll p)))
        payloads;
      let rng = Rng.create (Int64.of_int seed) in
      ignore (Io_sched.crash sched ~rng ~persist_probability:0.6 ~split_pages:true);
      match recover roll with
      | None -> true
      | Some (g, p) -> g >= 1 && g <= n + 1 && String.equal p (Printf.sprintf "payload-%d" (g - 1)))

(* Property: across arbitrary append/crash/recover interleavings, the
   recovered generation never exceeds the last appended one, and appending
   after recovery always yields a recoverable newest record. *)
let prop_generation_monotone =
  QCheck.Test.make ~name:"generations survive crash/recover cycles" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, sched, roll = make () in
      let rng = Rng.create (Int64.of_int seed) in
      let appended = ref 0 in
      let ok' = function Ok _ -> () | Error e -> Format.kasprintf failwith "%a" Logroll.pp_error e in
      let result = ref true in
      for _ = 1 to 12 do
        match Rng.int rng 3 with
        | 0 ->
          ok' (append roll (Printf.sprintf "g%d" (!appended + 1)));
          incr appended
        | 1 -> ignore (Io_sched.pump ~max_ios:(Rng.int rng 4) sched)
        | _ -> (
          ignore (Io_sched.crash sched ~rng ~persist_probability:0.5 ~split_pages:true);
          match recover roll with
          | None -> appended := 0
          | Some (g, payload) ->
            if g > !appended || payload <> Printf.sprintf "g%d" g then result := false;
            appended := g)
      done;
      !result)

(* The record's CRC covers the bytes it occupies: every single-byte
   change to a record, at any offset in a larger image, is rejected. *)
let test_decode_rejects_byte_flips () =
  let record = Logroll.encode ~gen:0x0102_0304_0506 ~payload:"metadata snapshot" in
  let len = String.length record in
  let image = "pad" ^ record ^ "tail" in
  (match Logroll.decode_record image ~off:3 with
  | Ok (gen, payload, next) ->
    Alcotest.(check int) "generation" 0x0102_0304_0506 gen;
    Alcotest.(check string) "payload" "metadata snapshot" payload;
    Alcotest.(check int) "next offset" (3 + len) next
  | Error e -> Alcotest.failf "intact record rejected: %a" Codec.pp_error e);
  for i = 0 to len - 1 do
    for mask = 1 to 255 do
      let b = Bytes.of_string image in
      Bytes.set b (3 + i) (Char.chr (Char.code (Bytes.get b (3 + i)) lxor mask));
      match Logroll.decode_record (Bytes.to_string b) ~off:3 with
      | Error _ -> ()
      | Ok (gen, payload, _) ->
        Alcotest.failf "byte %d xor 0x%02x accepted as generation %d, payload %S" i mask gen payload
    done
  done

let () =
  Alcotest.run "logroll"
    [
      ( "logroll",
        [
          Alcotest.test_case "append/recover" `Quick test_append_recover;
          Alcotest.test_case "recover empty" `Quick test_recover_empty;
          Alcotest.test_case "chain orders records" `Quick test_chain_orders_records;
          Alcotest.test_case "extent switch" `Quick test_extent_switch;
          Alcotest.test_case "torn tail forces switch" `Quick test_torn_tail_forces_switch;
          Alcotest.test_case "record too large" `Quick test_record_too_large;
          Alcotest.test_case "records open extents, recovery returns a chain" `Quick
            test_opens_and_chain;
          Alcotest.test_case "decode rejects every byte flip" `Quick
            test_decode_rejects_byte_flips;
          QCheck_alcotest.to_alcotest prop_recover_newest;
          QCheck_alcotest.to_alcotest prop_generation_monotone;
        ] );
    ]
