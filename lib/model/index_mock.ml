type error = unit

let pp_error fmt () = Format.pp_print_string fmt "index mock error"
let error_is_no_space () = false
let error_class () = `Fatal

type t = {
  table : (string, Chunk.Locator.t list * Dep.t) Hashtbl.t;
  mutable resets : int;
}

let create ?obs:_ _chunks ~metadata_extents:_ = { table = Hashtbl.create 64; resets = 0 }

let put t ~key ~locators ~value_dep =
  Hashtbl.replace t.table key (locators, value_dep);
  value_dep

let delete t ~key =
  Hashtbl.remove t.table key;
  Dep.trivial

let get t ~key =
  match Hashtbl.find_opt t.table key with
  | Some (locs, _) -> Ok (Some locs)
  | None -> Ok None

let scan t ~lo ~hi =
  Util.Tbl.fold_sorted
    (fun k (locs, _) acc -> if Util.Key_range.mem ~lo ~hi k then (k, locs) :: acc else acc)
    t.table []
  |> List.rev
  |> Result.ok

let configure_levels _t ~l0_trigger:_ ~level_ratio:_ = ()
let compaction_due _t = false
let level_runs _t = []
let level_invariants _t = Ok ()
let flush _t ~for_shutdown:_ = Ok Dep.trivial
let compact _t = Ok Dep.trivial
let compact_major _t = Ok Dep.trivial

let update_locator t ~key ~old_loc ~new_loc ~new_dep =
  match Hashtbl.find_opt t.table key with
  | Some (locs, dep) when List.exists (Chunk.Locator.equal old_loc) locs ->
    let locs =
      List.map (fun l -> if Chunk.Locator.equal l old_loc then new_loc else l) locs
    in
    Hashtbl.replace t.table key (locs, Dep.and_ dep new_dep);
    new_dep
  | Some _ | None -> Dep.trivial

let run_locators _t = []
let relocate_run _t ~run_id:_ ~new_loc:_ ~new_dep:_ = Ok Dep.trivial
let basis_dep _t = Dep.trivial
let note_extent_reset t = t.resets <- t.resets + 1

let recover t =
  Hashtbl.reset t.table;
  Ok ()

let memtable_size t = Hashtbl.length t.table
let run_count _t = 0
