type version = {
  value : string option;
  dep : Dep.t;
}

type record = {
  mutable baseline : string option;  (** survivor adopted at last reconcile *)
  mutable history : version list;  (** staged since, newest first *)
  mutable needs_reconcile : bool;  (** crashed and not yet observed *)
}

type t = (string, record) Hashtbl.t

type violation = {
  key : string;
  observed : string option;
  allowed : string option list;
}

let pp_value fmt = function
  | None -> Format.pp_print_string fmt "<absent>"
  | Some v -> Format.fprintf fmt "%S" v

let pp_violation fmt v =
  Format.fprintf fmt "persistence violation on %S: observed %a, allowed {%a}" v.key pp_value
    v.observed
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp_value)
    v.allowed

let create () = Hashtbl.create 64

let record t key =
  match Hashtbl.find_opt t key with
  | Some r -> r
  | None ->
    let r = { baseline = None; history = []; needs_reconcile = false } in
    Hashtbl.add t key r;
    r

let stage t ~key ~value ~dep =
  let r = record t key in
  r.history <- { value; dep } :: r.history

let put t ~key ~value ~dep = stage t ~key ~value:(Some value) ~dep
let delete t ~key ~dep = stage t ~key ~value:None ~dep

let current r =
  match r.history with
  | v :: _ -> v.value
  | [] -> r.baseline

let get t ~key =
  match Hashtbl.find_opt t key with
  | None -> None
  | Some r -> current r

let sorted_keys t = Util.Tbl.sorted_keys ~compare:String.compare t

let list t =
  List.filter (fun key -> Option.is_some (get t ~key)) (sorted_keys t)

let tracked_keys t = sorted_keys t

(* Versions at least as new as the newest persistent one are allowed
   survivors; if nothing persisted, the baseline is allowed too. *)
let allowed_of_record_under pred r =
  let rec go acc = function
    | [] -> List.rev (r.baseline :: acc)
    | v :: rest ->
      if Dep.persistent_under pred v.dep then List.rev (v.value :: acc)
      else go (v.value :: acc) rest
  in
  go [] r.history

let allowed_of_record r = allowed_of_record_under (fun _ -> false) r

let allowed_after_crash t ~key =
  match Hashtbl.find_opt t key with
  | None -> [ None ]
  | Some r -> allowed_of_record r

let allowed_after_crash_under ~pred t ~key =
  match Hashtbl.find_opt t key with
  | None -> [ None ]
  | Some r -> allowed_of_record_under pred r

let reconcile t ~key ~observed =
  let r = record t key in
  let allowed = allowed_of_record r in
  if List.mem observed allowed then begin
    (* Fault #9: the reference model is not updated correctly after a
       crash — it keeps its own newest staged value rather than adopting
       the observed survivor. *)
    if Faults.enabled Faults.F9_model_crash_reconcile then begin
      Faults.record_fired Faults.F9_model_crash_reconcile;
      r.baseline <- current r
    end
    else r.baseline <- observed;
    r.history <- [];
    r.needs_reconcile <- false;
    Ok ()
  end
  else Error { key; observed; allowed }

let mark_crashed t = Util.Tbl.iter_sorted (fun _ r -> r.needs_reconcile <- true) t

let needs_reconcile t ~key =
  match Hashtbl.find_opt t key with Some r -> r.needs_reconcile | None -> false

let resolve_read t ~key ~observed =
  let r = record t key in
  if observed = current r then begin
    r.needs_reconcile <- false;
    Ok ()
  end
  else reconcile t ~key ~observed
