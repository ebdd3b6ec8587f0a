open Util

type t = (string * Entry.t) array  (* sorted by key, unique keys *)

module Smap = Map.Make (String)

let of_pairs pairs =
  let rec ascending = function
    | (k1, _) :: ((k2, _) :: _ as rest) -> String.compare k1 k2 < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  if ascending pairs then Array.of_list pairs
  else invalid_arg "Run.of_pairs: keys not strictly ascending"

let length = Array.length
let is_empty t = Array.length t = 0

(* Index of the first pair whose key is not below [key] ([length t] when
   there is none): the binary search behind [find] and [slice]. *)
let lower_bound t key =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if String.compare (fst t.(mid)) key < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t)

let find t key =
  let i = lower_bound t key in
  if i < Array.length t && String.equal (fst t.(i)) key then Some (snd t.(i)) else None

let slice t ~lo ~hi =
  let first = match lo with None -> 0 | Some l -> lower_bound t l in
  let stop =
    match hi with
    | None -> Array.length t
    | Some h ->
      let i = lower_bound t h in
      if i < Array.length t && String.equal (fst t.(i)) h then i + 1 else i
  in
  if first = 0 && stop = Array.length t then t
  else if first >= stop then [||]
  else Array.sub t first (stop - first)

let to_list = Array.to_list

let merge ~drop_tombstones runs =
  (* Head shadows tail: fold oldest-first so newer bindings overwrite. *)
  let m =
    List.fold_left
      (fun m run -> Array.fold_left (fun m (k, e) -> Smap.add k e m) m run)
      Smap.empty (List.rev runs)
  in
  let keep =
    if drop_tombstones then
      Smap.filter (fun _ e -> match e with Entry.Tombstone -> false | Entry.Put _ -> true) m
    else m
  in
  Array.of_list (Smap.bindings keep)

let min_key t = if Array.length t = 0 then None else Some (fst t.(0))
let max_key t = if Array.length t = 0 then None else Some (fst t.(Array.length t - 1))

let encode_pair w (k, e) =
  Codec.Writer.lstring w k;
  Entry.encode w e

let decode_pair r =
  let open Codec.Syntax in
  let* k = Codec.Reader.lstring r in
  let+ e = Entry.decode r in
  (k, e)

let encode t =
  let w = Codec.Writer.create ~capacity:(64 * (Array.length t + 1)) () in
  Codec.Writer.list w encode_pair (Array.to_list t);
  Codec.Writer.contents w

let decode s =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string s in
  let* pairs = Codec.Reader.list ~max:(1 lsl 24) ~what:"run entry" r decode_pair in
  let* () = Codec.Reader.expect_end r in
  let arr = Array.of_list pairs in
  (* Reject unsorted or duplicated keys: the binary search depends on
     order, and on-disk bytes are untrusted. *)
  let ok = ref true in
  for i = 1 to Array.length arr - 1 do
    if String.compare (fst arr.(i - 1)) (fst arr.(i)) >= 0 then ok := false
  done;
  if !ok then Ok arr else Error (Codec.Invalid "run keys not strictly sorted")
