type config = {
  extent_count : int;
  pages_per_extent : int;
  page_size : int;
}

let default_config = { extent_count = 16; pages_per_extent = 16; page_size = 64 }

let extent_size c = c.pages_per_extent * c.page_size

type io_error =
  | Transient
  | Permanent
  | Out_of_bounds of string

let pp_io_error fmt = function
  | Transient -> Format.pp_print_string fmt "transient IO error"
  | Permanent -> Format.pp_print_string fmt "permanent IO error"
  | Out_of_bounds msg -> Format.fprintf fmt "out of bounds: %s" msg

type fault_state = Healthy | Fail_once | Fail_always

type extent = {
  data : Bytes.t;
  mutable hard_ptr : int;
  mutable epoch : int;
  mutable fault : fault_state;
}

(* Registry handles; resolved once per registry attachment. *)
type metrics = {
  reads : Obs.Counter.t;
  writes : Obs.Counter.t;
  resets : Obs.Counter.t;
  bytes_written : Obs.Counter.t;
  injected : Obs.Counter.t;
}

let make_metrics obs =
  {
    reads = Obs.counter obs "disk.read";
    writes = Obs.counter obs "disk.write";
    resets = Obs.counter obs "disk.reset";
    bytes_written = Obs.counter obs "disk.bytes_written";
    injected = Obs.counter obs "disk.fault_injected";
  }

(* Seeded random arming: every IO rolls the dice instead of hand-placed
   per-extent faults. Chaos campaigns use this so fault placement is part
   of the replayable seed, not the script. *)
type random_faults = {
  rng : Util.Rng.t;
  transient_prob : float;
  permanent_prob : float;
}

type t = {
  config : config;
  extents : extent array;
  mutable obs : Obs.t;
  mutable m : metrics;
  shadow : Sanitize.Page_shadow.t option;
  mutable random : random_faults option;
}

let create ?obs ?shadow config =
  assert (config.extent_count > 0 && config.pages_per_extent > 0 && config.page_size > 0);
  let size = extent_size config in
  let mk _ = { data = Bytes.make size '\000'; hard_ptr = 0; epoch = 0; fault = Healthy } in
  let obs = match obs with Some o -> o | None -> Obs.create ~scope:"disk" () in
  {
    config;
    extents = Array.init config.extent_count mk;
    obs;
    m = make_metrics obs;
    shadow;
    random = None;
  }

let copy t =
  let obs = Obs.create ~scope:"disk" () in
  {
    config = t.config;
    extents =
      Array.map
        (fun e ->
          { data = Bytes.copy e.data; hard_ptr = e.hard_ptr; epoch = e.epoch; fault = Healthy })
        t.extents;
    obs;
    m = make_metrics obs;
    (* Clones are scratch space for the crash-state enumerator; shadow
       checking stays on the primary view only, and so does fault arming. *)
    shadow = None;
    random = None;
  }

let shadow t = t.shadow

let obs t = t.obs

(* Re-home the disk's metrics onto [obs] (the store does this when opening
   a stack on an existing disk, so one registry covers every layer).
   Counts accumulated so far carry over. *)
let attach_obs t obs =
  let m = make_metrics obs in
  Obs.Counter.add m.reads (Obs.Counter.value t.m.reads);
  Obs.Counter.add m.writes (Obs.Counter.value t.m.writes);
  Obs.Counter.add m.resets (Obs.Counter.value t.m.resets);
  Obs.Counter.add m.bytes_written (Obs.Counter.value t.m.bytes_written);
  Obs.Counter.add m.injected (Obs.Counter.value t.m.injected);
  t.obs <- obs;
  t.m <- m

let config t = t.config

let get_extent t extent =
  if extent < 0 || extent >= t.config.extent_count then
    Error (Out_of_bounds (Printf.sprintf "extent %d (of %d)" extent t.config.extent_count))
  else Ok t.extents.(extent)

let injected t kind =
  Obs.Counter.incr t.m.injected;
  if Obs.tracing t.obs then Obs.emit t.obs ~layer:"disk" "fault_injected" [ ("kind", kind) ]

(* Deliver an armed failure, if any; Fail_once disarms itself. Extents
   with no armed fault additionally roll the seeded random arming: a
   permanent hit leaves the extent failed (like a media error) until
   {!heal}, a transient hit fails just this IO. *)
let check_fault t e =
  match e.fault with
  | Healthy -> (
    match t.random with
    | None -> Ok ()
    | Some { rng; transient_prob; permanent_prob } ->
      if Util.Rng.chance rng permanent_prob then begin
        e.fault <- Fail_always;
        injected t "random_permanent";
        Error Permanent
      end
      else if Util.Rng.chance rng transient_prob then begin
        injected t "random_transient";
        Error Transient
      end
      else Ok ())
  | Fail_once ->
    e.fault <- Healthy;
    injected t "once";
    Error Transient
  | Fail_always ->
    injected t "always";
    Error Permanent

let hard_ptr t ~extent =
  match get_extent t extent with
  | Ok e -> e.hard_ptr
  | Error _ -> invalid_arg "Disk.hard_ptr: bad extent"

let epoch t ~extent =
  match get_extent t extent with
  | Ok e -> e.epoch
  | Error _ -> invalid_arg "Disk.epoch: bad extent"

let ( let* ) = Result.bind

let write t ~extent ~off data =
  let* e = get_extent t extent in
  let* () = check_fault t e in
  let len = String.length data in
  if off <> e.hard_ptr then
    Error (Out_of_bounds (Printf.sprintf "non-sequential write at %d, pointer %d" off e.hard_ptr))
  else if off + len > extent_size t.config then
    Error (Out_of_bounds (Printf.sprintf "write past extent end: %d + %d" off len))
  else begin
    Bytes.blit_string data 0 e.data off len;
    e.hard_ptr <- off + len;
    Obs.Counter.incr t.m.writes;
    Obs.Counter.add t.m.bytes_written len;
    (* Shadow commits only on success: the shadow mirrors the durable view. *)
    (match t.shadow with
    | Some s -> Sanitize.Page_shadow.on_write s ~extent ~off ~len
    | None -> ());
    Ok ()
  end

let read ?expect_epoch t ~extent ~off ~len =
  let* e = get_extent t extent in
  let* () = check_fault t e in
  (* Check-only, on the attempt: a faulting read (e.g. past the rewound
     pointer of a reset extent) is reported here even though the bounds
     check below rejects it. *)
  (match t.shadow with
  | Some s -> Sanitize.Page_shadow.on_read ?expect_epoch s ~extent ~off ~len
  | None -> ());
  if len < 0 || off < 0 then Error (Out_of_bounds "negative offset or length")
  else if off + len > e.hard_ptr then
    Error
      (Out_of_bounds
         (Printf.sprintf "read [%d, %d) beyond write pointer %d" off (off + len) e.hard_ptr))
  else begin
    Obs.Counter.incr t.m.reads;
    Ok (Bytes.sub_string e.data off len)
  end

let reset ?epoch t ~extent =
  let* e = get_extent t extent in
  let* () = check_fault t e in
  Bytes.fill e.data 0 (Bytes.length e.data) '\000';
  e.hard_ptr <- 0;
  e.epoch <- (match epoch with Some v -> v | None -> e.epoch + 1);
  Obs.Counter.incr t.m.resets;
  (match t.shadow with
  | Some s -> Sanitize.Page_shadow.on_reset s ~extent ~epoch:e.epoch
  | None -> ());
  Ok ()

let consume_fault t ~extent =
  let* e = get_extent t extent in
  check_fault t e

let set_fault t ~extent st =
  match get_extent t extent with
  | Ok e -> e.fault <- st
  | Error _ -> invalid_arg "Disk: bad extent for fault injection"

let fail_once t ~extent = set_fault t ~extent Fail_once
let fail_permanently t ~extent = set_fault t ~extent Fail_always
let heal t ~extent = set_fault t ~extent Healthy

let arm_random_faults t ~rng ~transient_prob ~permanent_prob =
  if transient_prob < 0. || permanent_prob < 0. then
    invalid_arg "Disk.arm_random_faults: negative probability";
  t.random <- Some { rng; transient_prob; permanent_prob }

let disarm_random_faults t = t.random <- None

let heal_all t =
  Array.iter (fun e -> e.fault <- Healthy) t.extents;
  t.random <- None

let injected_failures t = Obs.Counter.value t.m.injected

let with_faults_suspended t f =
  let saved = Array.map (fun e -> e.fault) t.extents in
  let saved_random = t.random in
  Array.iter (fun e -> e.fault <- Healthy) t.extents;
  t.random <- None;
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun i e -> e.fault <- saved.(i)) t.extents;
      t.random <- saved_random)
    f

let durable_image t ~extent =
  match get_extent t extent with
  | Ok e -> Bytes.sub_string e.data 0 e.hard_ptr
  | Error _ -> invalid_arg "Disk.durable_image: bad extent"

let page_of_offset t off = off / t.config.page_size
