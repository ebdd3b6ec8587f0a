module S = Harness.S

type stats = {
  states : int;
  truncated : bool;
  violations : int;
  first_violation : string option;
}

let pp_stats fmt s =
  Format.fprintf fmt "%d crash states%s, %d violations" s.states
    (if s.truncated then " (truncated)" else "")
    s.violations

(* One candidate crash state: per extent, how many queued writes persist
   fully, plus an optional torn byte-prefix of the next write. *)
type choice = {
  full : Dep.write list;  (** persisted whole, in queue order *)
  torn : (Dep.write * int) option;  (** write persisted only up to [bytes] *)
}

let page_boundaries ~page_size (w : Dep.write) =
  match w.Dep.kind with
  | Dep.Reset _ -> []
  | Dep.Append { off; data } ->
    let len = String.length data in
    let first = ((off / page_size) + 1) * page_size in
    let rec go b acc = if b >= off + len then List.rev acc else go (b + page_size) ((b - off) :: acc) in
    go first []

(* All prefix choices for one extent queue. *)
let extent_choices ~page_size ~include_torn queue =
  let rec prefixes taken rest acc =
    let acc = { full = List.rev taken; torn = None } :: acc in
    match rest with
    | [] -> acc
    | w :: rest' ->
      let acc =
        if include_torn then
          List.fold_left
            (fun acc cut -> { full = List.rev taken; torn = Some (w, cut) } :: acc)
            acc
            (page_boundaries ~page_size w)
        else acc
      in
      prefixes (w :: taken) rest' acc
  in
  List.rev (prefixes [] queue [])

let evaluate ~store_config store model combo =
  let chosen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c -> List.iter (fun w -> Hashtbl.replace chosen w.Dep.id ()) c.full)
    combo;
  (* Dependency closure: a write may persist only if its input would be
     persistent under this subset. *)
  let pred w = Hashtbl.mem chosen w.Dep.id in
  let closed =
    List.for_all
      (fun c -> List.for_all (fun w -> Dep.persistent_under pred w.Dep.input) c.full)
      combo
  in
  if not closed then `Pruned
  else begin
    let clone = Disk.copy (S.disk store) in
    let apply_write (w : Dep.write) =
      match w.Dep.kind with
      | Dep.Append { off; data } -> (
        match Disk.write clone ~extent:w.Dep.extent ~off data with
        | Ok () -> ()
        | Error e -> Format.kasprintf failwith "crash enum apply: %a" Disk.pp_io_error e)
      | Dep.Reset { epoch } -> (
        match Disk.reset ~epoch clone ~extent:w.Dep.extent with
        | Ok () -> ()
        | Error e -> Format.kasprintf failwith "crash enum apply: %a" Disk.pp_io_error e)
    in
    List.iter
      (fun c ->
        List.iter apply_write c.full;
        match c.torn with
        | Some ({ Dep.kind = Dep.Append { off; data }; extent; _ }, cut) -> (
          match Disk.write clone ~extent ~off (String.sub data 0 cut) with
          | Ok () -> ()
          | Error e -> Format.kasprintf failwith "crash enum apply: %a" Disk.pp_io_error e)
        | Some ({ Dep.kind = Dep.Reset _; _ }, _) -> assert false
        | None -> ())
      combo;
    (* Recover a fresh store on the clone and check every tracked key
       against the survivors this subset allows. *)
    let recovered = S.of_disk store_config clone in
    match S.recover recovered with
    | Error e -> `Violation (Format.asprintf "recovery failed in crash state: %a" S.pp_error e)
    | Ok () -> (
      let violation =
        List.fold_left
          (fun violation key ->
            match violation with
            | Some _ -> violation
            | None -> (
              let allowed = Model.Crash_model.allowed_after_crash_under ~pred model ~key in
              match S.get recovered ~key with
              | Ok observed ->
                if List.mem observed allowed then None
                else
                  Some
                    (Format.asprintf
                       "crash state: key %S observed %s, not among %d allowed survivors" key
                       (match observed with
                       | None -> "<absent>"
                       | Some v -> Printf.sprintf "%d bytes" (String.length v))
                       (List.length allowed))
              | Error e ->
                Some (Format.asprintf "crash state: key %S unreadable: %a" key S.pp_error e)))
          None
          (Model.Crash_model.tracked_keys model)
      in
      match violation with Some msg -> `Violation msg | None -> `Clean)
  end

let enumerate ~store_config ~max_states ~include_torn store model =
  let sched = S.sched store in
  let page_size = Io_sched.page_size sched in
  let pending = Io_sched.pending_writes sched in
  (* Group by extent, preserving queue (id) order. *)
  let by_extent : (int, Dep.write list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun w ->
      match Hashtbl.find_opt by_extent w.Dep.extent with
      | Some l -> l := w :: !l
      | None -> Hashtbl.add by_extent w.Dep.extent (ref [ w ]))
    pending;
  let queues =
    Util.Tbl.fold_sorted (fun _ l acc -> List.rev !l :: acc) by_extent []
  in
  let per_extent = List.map (extent_choices ~page_size ~include_torn) queues in
  let stats = ref { states = 0; truncated = false; violations = 0; first_violation = None } in
  let rec product combo = function
    | [] ->
      (* A speculative hunt task overtaken by a lower hit stops here: its
         verdict is dropped anyway. *)
      if !stats.states >= max_states || Par.cancelled () then
        stats := { !stats with truncated = true }
      else begin
        match evaluate ~store_config store model combo with
        | `Pruned -> ()  (* violates dependency closure: unreachable *)
        | `Clean -> stats := { !stats with states = !stats.states + 1 }
        | `Violation msg ->
          stats :=
            {
              !stats with
              states = !stats.states + 1;
              violations = !stats.violations + 1;
              first_violation =
                (match !stats.first_violation with Some _ as v -> v | None -> Some msg);
            }
      end
    | choices :: rest ->
      List.iter (fun c -> if not !stats.truncated then product (c :: combo) rest) choices
  in
  product [] per_extent;
  !stats

let hook ~max_states ~acc store model =
  let s =
    enumerate ~store_config:(S.config store) ~max_states ~include_torn:true store model
  in
  acc :=
    {
      states = !acc.states + s.states;
      truncated = !acc.truncated || s.truncated;
      violations = !acc.violations + s.violations;
      first_violation =
        (match !acc.first_violation with Some _ as v -> v | None -> s.first_violation);
    };
  s.first_violation
