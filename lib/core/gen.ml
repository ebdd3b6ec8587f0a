open Util

type profile = Crash_free | Crashing | Failing | Full

let profile_name = function
  | Crash_free -> "crash-free"
  | Crashing -> "crashing"
  | Failing -> "failing"
  | Full -> "full"

type bias = {
  key_reuse : float;
  page_size_values : float;
  uuid_magic : float;
  max_value : int;
  batch_weight : int;
  scan_weight : int;
}

let default_bias =
  {
    key_reuse = 0.8;
    page_size_values = 0.5;
    uuid_magic = 0.05;
    max_value = 150;
    batch_weight = 0;
    scan_weight = 0;
  }

let unbiased =
  {
    key_reuse = 0.0;
    page_size_values = 0.0;
    uuid_magic = 0.0;
    max_value = 150;
    batch_weight = 0;
    scan_weight = 0;
  }

(* Mutable generation state; threading it keeps generation deterministic
   per seed. *)
type state = {
  mutable known_keys : string list;  (** keys put at least once *)
  mutable in_service : bool;
}

let initial_state () = { known_keys = []; in_service = true }

let key_pool = Array.init 8 (fun i -> Printf.sprintf "key-%02d" i)

let fresh_key rng =
  if Rng.chance rng 0.8 then Rng.pick rng key_pool
  else Printf.sprintf "rnd-%04x" (Rng.int rng 0x10000)

(* Biased key choice: prefer previously-put keys so the successful-Get path
   is actually exercised, but keep misses possible. *)
let pick_key rng bias state =
  if state.known_keys <> [] && Rng.chance rng bias.key_reuse then
    Rng.pick_list rng state.known_keys
  else fresh_key rng

let value rng bias ~page_size =
  let len =
    if Rng.chance rng bias.page_size_values then begin
      (* Near a page multiple: where frames straddle boundaries. *)
      let pages = 1 + Rng.int rng 3 in
      max 0 ((pages * page_size) - Rng.int_in rng 40 56 + Rng.int rng 4)
    end
    else Rng.int rng (bias.max_value + 1)
  in
  Bytes.to_string (Rng.bytes rng len)

let reboot_type rng =
  {
    Op.flush_index = Rng.bool rng;
    flush_superblock = Rng.bool rng;
    persist_probability = Rng.pick rng [| 0.0; 0.3; 0.5; 0.7; 1.0 |];
    split_pages = Rng.bool rng;
  }

(* [op ... state] draws the next operation and updates [state]. *)
let op ~rng ~bias ~profile ~page_size ~extent_count state =
  if not state.in_service then begin
    (* Out of service: mostly return quickly, with a few rejected requests
       to exercise the Out_of_service path. *)
    match Rng.weighted rng [ (6, `Return); (1, `Get); (1, `Put) ] with
    | `Return ->
      state.in_service <- true;
      Op.ReturnToService
    | `Get -> Op.Get (pick_key rng bias state)
    | `Put -> Op.Put (pick_key rng bias state, value rng bias ~page_size)
  end
  else begin
    let base =
      [
        (10, `Put);
        (8, `Get);
        (4, `Delete);
        (1, `List);
        (3, `IndexFlush);
        (2, `SuperblockFlush);
        (1, `Compact);
        (3, `Reclaim);
        (4, `Pump);
        (1, `Remove);
      ]
    in
    (* Batch ops join the alphabet only when [batch_weight > 0]: adding
       choices changes every weighted draw after it, so the deterministic
       fault-detection experiments keep their exact sequences by default. *)
    let base =
      if bias.batch_weight > 0 then
        base @ [ (bias.batch_weight, `PutBatch); (max 1 (bias.batch_weight / 3), `DeleteBatch) ]
      else base
    in
    (* Scans likewise join only on request, and always at the end of the
       alphabet, for the same determinism reason. *)
    let base = if bias.scan_weight > 0 then base @ [ (bias.scan_weight, `Scan) ] else base in
    let crashing = [ (3, `DirtyReboot); (1, `CleanReboot) ] in
    let failing = [ (2, `FailOnce); (1, `FailPermanent); (2, `Heal) ] in
    let choices =
      match profile with
      | Crash_free -> base
      | Crashing -> base @ crashing
      | Failing -> base @ failing
      | Full -> base @ crashing @ failing
    in
    match Rng.weighted rng choices with
    | `Put ->
      let key = pick_key rng bias state in
      if not (List.mem key state.known_keys) then state.known_keys <- key :: state.known_keys;
      Op.Put (key, value rng bias ~page_size)
    | `Get -> Op.Get (pick_key rng bias state)
    | `Delete -> Op.Delete (pick_key rng bias state)
    | `PutBatch ->
      let n = 2 + Rng.int rng 7 in
      Op.PutBatch
        (List.init n (fun _ ->
             let key = pick_key rng bias state in
             if not (List.mem key state.known_keys) then
               state.known_keys <- key :: state.known_keys;
             (key, value rng bias ~page_size)))
    | `DeleteBatch ->
      let n = 2 + Rng.int rng 4 in
      Op.DeleteBatch (List.init n (fun _ -> pick_key rng bias state))
    | `List -> Op.List
    | `Scan ->
      (* Bounds come from the same biased key pool as point reads, so most
         scans actually overlap live data; ~30% of each bound is open. *)
      let bound () = if Rng.chance rng 0.3 then None else Some (pick_key rng bias state) in
      let lo = bound () and hi = bound () in
      let lo, hi =
        match (lo, hi) with
        | Some l, Some h when String.compare l h > 0 -> (Some h, Some l)
        | _ -> (lo, hi)
      in
      Op.Scan { lo; hi }
    | `IndexFlush -> Op.IndexFlush
    | `SuperblockFlush -> Op.SuperblockFlush
    | `Compact -> Op.Compact
    | `Reclaim -> Op.Reclaim
    | `Pump -> Op.Pump (1 + Rng.int rng 8)
    | `Remove ->
      state.in_service <- false;
      Op.RemoveFromService
    | `DirtyReboot ->
      state.in_service <- true;
      Op.DirtyReboot (reboot_type rng)
    | `CleanReboot ->
      state.in_service <- true;
      Op.CleanReboot
    | `FailOnce -> Op.FailDiskOnce (Rng.int rng extent_count)
    | `FailPermanent -> Op.FailDiskPermanent (Rng.int rng extent_count)
    | `Heal -> Op.HealDisk (Rng.int rng extent_count)
  end

let sequence ~rng ~bias ~profile ~page_size ~extent_count ~length =
  let state = initial_state () in
  List.init length (fun _ -> op ~rng ~bias ~profile ~page_size ~extent_count state)
