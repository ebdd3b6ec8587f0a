module Smap = Map.Make (String)

type entry = Value of string | Tomb

type run = { lo : string; hi : string; entries : (string * entry) list }

type t = {
  mutable memtable : entry Smap.t;
  mutable levels : run list list;
  l0_trigger : int;
  level_ratio : int;
}

let create ?(l0_trigger = 4) ?(level_ratio = 4) () =
  { memtable = Smap.empty; levels = [ [] ]; l0_trigger = max 0 l0_trigger;
    level_ratio = max 2 level_ratio }

let put t ~key ~value = t.memtable <- Smap.add key (Value value) t.memtable
let delete t ~key = t.memtable <- Smap.add key Tomb t.memtable

let all_runs t = List.concat t.levels
let run_count t = List.length (all_runs t)

let run_of_map m =
  match (Smap.min_binding_opt m, Smap.max_binding_opt m) with
  | Some (lo, _), Some (hi, _) -> Some { lo; hi; entries = Smap.bindings m }
  | _ -> None

let flush t =
  match run_of_map t.memtable with
  | None -> ()
  | Some run ->
    t.levels <- (match t.levels with l0 :: deeper -> (run :: l0) :: deeper | [] -> [ [ run ] ]);
    t.memtable <- Smap.empty

(* Newest-first merge, mirroring {!Run.merge}: fold oldest-first so newer
   bindings overwrite; tombstones dropped only on the deepest level. *)
let merge ~drop_tombstones runs =
  let m =
    List.fold_left
      (fun m run -> List.fold_left (fun m (k, e) -> Smap.add k e m) m run.entries)
      Smap.empty (List.rev runs)
  in
  if drop_tombstones then Smap.filter (fun _ e -> e <> Tomb) m else m

let nth_level t i = match List.nth_opt t.levels i with Some l -> l | None -> []

let set_level t i runs =
  let n = List.length t.levels in
  let padded = if i < n then t.levels else t.levels @ List.init (i + 1 - n) (fun _ -> []) in
  t.levels <- List.mapi (fun j l -> if j = i then runs else l) padded

let capacity t i =
  if i = 0 then max 1 t.l0_trigger
  else begin
    let rec go acc j =
      if j = 0 then acc
      else if acc > max_int / t.level_ratio then max_int
      else go (acc * t.level_ratio) (j - 1)
    in
    go 1 i
  end

let overfull t i =
  let n = List.length (nth_level t i) in
  if i = 0 then t.l0_trigger > 0 && n >= t.l0_trigger else n > capacity t i

let first_overfull t =
  let rec go i =
    if i >= List.length t.levels then None else if overfull t i then Some i else go (i + 1)
  in
  go 0

let compaction_due t = t.l0_trigger > 0 && first_overfull t <> None

let populated_levels t =
  List.mapi (fun i l -> (i, l)) t.levels
  |> List.filter_map (fun (i, l) -> if l = [] then None else Some i)

let deepest_populated t = match List.rev (populated_levels t) with d :: _ -> Some d | [] -> None
let lowest_populated t = match populated_levels t with l :: _ -> Some l | [] -> None

let compact_step t ~level =
  let victim, remaining =
    if level = 0 then
      match List.rev (nth_level t 0) with
      | v :: rest_rev -> (v, List.rev rest_rev)
      | [] -> invalid_arg "Level_model.compact_step: empty level"
    else
      match nth_level t level with
      | v :: rest -> (v, rest)
      | [] -> invalid_arg "Level_model.compact_step: empty level"
  in
  let target = level + 1 in
  let overlapping, keep =
    List.partition
      (fun r -> not (String.compare r.hi victim.lo < 0 || String.compare r.lo victim.hi > 0))
      (nth_level t target)
  in
  let drop_tombstones =
    match deepest_populated t with Some d -> d <= target | None -> true
  in
  let merged = merge ~drop_tombstones (victim :: overlapping) in
  set_level t level remaining;
  (match run_of_map merged with
  | None -> set_level t target keep
  | Some run ->
    set_level t target
      (List.sort (fun a b -> String.compare a.lo b.lo) (run :: keep)))

let compact t =
  if run_count t <= 1 then ()
  else if t.l0_trigger = 0 then begin
    (* Monolithic: everything into one generation, tombstones dropped. *)
    let merged = merge ~drop_tombstones:true (all_runs t) in
    t.levels <- [ (match run_of_map merged with None -> [] | Some r -> [ r ]) ]
  end
  else begin
    let rec drain steps =
      if steps >= 64 then ()
      else
        match first_overfull t with
        | Some level ->
          compact_step t ~level;
          drain (steps + 1)
        | None -> ()
    in
    if compaction_due t then drain 0
    else
      match (lowest_populated t, deepest_populated t) with
      | Some lo, Some hi when lo < hi -> compact_step t ~level:lo
      | Some 0, Some 0 -> compact_step t ~level:0
      | _ -> ()
  end

(* {2 Observations} *)

let scan t ~lo ~hi =
  let in_range = Util.Key_range.mem ~lo ~hi in
  (* Compose: fold the levels oldest-first (deepest up), then the memtable
     newest, so newer bindings overwrite — the per-level composition. *)
  let m =
    List.fold_left
      (fun m run ->
        List.fold_left
          (fun m (k, e) -> if in_range k then Smap.add k e m else m)
          m run.entries)
      Smap.empty
      (List.rev (all_runs t))
  in
  let m = Smap.fold (fun k e m -> if in_range k then Smap.add k e m else m) t.memtable m in
  Smap.fold (fun k e acc -> match e with Value v -> (k, v) :: acc | Tomb -> acc) m []
  |> List.rev

let invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_runs = function
    | [] -> Ok ()
    | r :: rest ->
      if String.compare r.lo r.hi > 0 then err "run with lo > hi"
      else if r.entries = [] then err "empty run"
      else check_runs rest
  in
  let rec check_level i = function
    | [] -> Ok ()
    | runs :: deeper -> (
      match check_runs runs with
      | Error _ as e -> e
      | Ok () ->
        let rec disjoint = function
          | a :: (b :: _ as rest) ->
            if String.compare a.hi b.lo >= 0 then err "level %d: overlapping runs" i
            else disjoint rest
          | _ -> Ok ()
        in
        (match if i = 0 then Ok () else disjoint runs with
        | Error _ as e -> e
        | Ok () -> check_level (i + 1) deeper))
  in
  check_level 0 t.levels
