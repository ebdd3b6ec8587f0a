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

let find t key =
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let k, e = t.(mid) in
      match String.compare key k with
      | 0 -> Some e
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
    end
  in
  go 0 (Array.length t)

let to_list = Array.to_list
let iter f t = Array.iter (fun (k, e) -> f k e) t

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

let replace_locator t ~key ~old_loc ~new_loc =
  match find t key with
  | Some (Entry.Put locs) when List.exists (Chunk.Locator.equal old_loc) locs ->
    let locs =
      List.map (fun l -> if Chunk.Locator.equal l old_loc then new_loc else l) locs
    in
    let copy = Array.copy t in
    Array.iteri (fun i (k, _) -> if String.equal k key then copy.(i) <- (k, Entry.Put locs)) copy;
    Some copy
  | Some (Entry.Put _) | Some Entry.Tombstone | None -> None

let encode t =
  let w = Codec.Writer.create ~capacity:(64 * (Array.length t + 1)) () in
  Codec.Writer.u32 w (Int32.of_int (Array.length t));
  Array.iter
    (fun (k, e) ->
      Codec.Writer.lstring w k;
      Entry.encode w e)
    t;
  Codec.Writer.contents w

let decode s =
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
        let* e = Entry.decode r in
        go ((k, e) :: acc) (i + 1)
    in
    let* arr = go [] 0 in
    (* Reject unsorted or duplicated keys: the binary search depends on
       order, and on-disk bytes are untrusted. *)
    let ok = ref true in
    for i = 1 to Array.length arr - 1 do
      if String.compare (fst arr.(i - 1)) (fst arr.(i)) >= 0 then ok := false
    done;
    if !ok then Ok arr else Error (Codec.Invalid "run keys not strictly sorted")
  end
