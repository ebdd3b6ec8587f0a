open Util

type t = {
  sched : Io_sched.t;
  extent_a : int;
  extent_b : int;
  name : string;
  m_appends : Obs.Counter.t;
  m_switches : Obs.Counter.t;
  m_recovers : Obs.Counter.t;
  mutable active : int;
  mutable gen : int;
  mutable last_dep : Dep.t;
  mutable pending_switch : bool;
}

type error =
  | Sched of Io_sched.error
  | Record_too_large of { size : int; capacity : int }

let pp_error fmt = function
  | Sched e -> Io_sched.pp_error fmt e
  | Record_too_large { size; capacity } ->
    Format.fprintf fmt "record too large: %d bytes, extent capacity %d" size capacity

let error_class = function
  | Sched e -> Io_sched.error_class e
  | Record_too_large _ -> `Resource

let magic = "LR"

let create ?obs sched ~extents:(extent_a, extent_b) ~name =
  assert (extent_a <> extent_b);
  let obs = match obs with Some o -> o | None -> Io_sched.obs sched in
  (* Two rolls (superblock, index metadata) share one registry; the label
     keeps their series apart. *)
  let labels = [ ("roll", name) ] in
  {
    sched;
    extent_a;
    extent_b;
    name;
    m_appends = Obs.counter ~labels obs "logroll.append";
    m_switches = Obs.counter ~labels obs "logroll.switch";
    m_recovers = Obs.counter ~labels obs "logroll.recover";
    active = extent_a;
    gen = 0;
    last_dep = Dep.trivial;
    pending_switch = false;
  }

let generation t = t.gen
let last_record_dep t = t.last_dep
let switches t = Obs.Counter.value t.m_switches
let sibling t extent = if extent = t.extent_a then t.extent_b else t.extent_a

let encode ~gen ~payload =
  let inner = Codec.Writer.create ~capacity:(String.length payload + 24) () in
  Codec.Writer.u64 inner (Int64.of_int gen);
  Codec.Writer.lstring inner payload;
  let inner = Codec.Writer.contents inner in
  let w = Codec.Writer.create ~capacity:(String.length inner + 8) () in
  Codec.Writer.raw_string w magic;
  Codec.Writer.raw_string w inner;
  Codec.Writer.u32 w (Crc32.digest_string inner);
  Codec.Writer.contents w

(* Decode the record at [off] in [image], returning it with the offset
   just past it. Total: corrupt or truncated input yields [Error]. *)
let decode_record image ~off =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string ~pos:off image in
  let* () = Codec.Reader.magic r magic in
  let start = Codec.Reader.pos r in
  let* gen64 = Codec.Reader.u64 r in
  let* payload = Codec.Reader.lstring r in
  let inner_len = Codec.Reader.pos r - start in
  let* crc = Codec.Reader.u32 r in
  if gen64 < 0L || gen64 > Int64.of_int max_int then Error (Codec.Invalid "generation")
  else if Crc32.digest_string ~off:start ~len:inner_len image <> crc then Error Codec.Bad_checksum
  else Ok (Int64.to_int gen64, payload, Codec.Reader.pos r)

let scan_extent t extent =
  let len = Io_sched.soft_ptr t.sched ~extent in
  if len = 0 then []
  else
    match Io_sched.read t.sched ~extent ~off:0 ~len with
    | Error _ -> []
    | Ok image ->
      let rec go acc off =
        if off = String.length image then List.rev acc
        else
          match decode_record image ~off with
          | Ok ((_, _, next) as record) -> go (record :: acc) next
          | Error _ -> List.rev acc
        (* decode failure = torn or garbage tail; nothing after it can be a
           durable record because extents persist in FIFO prefix order *)
      in
      go [] 0

let append t ~payload ~input =
  let record = encode ~gen:(t.gen + 1) ~payload in
  let size = String.length record in
  let capacity = Io_sched.extent_size t.sched in
  if size > capacity then Error (Record_too_large { size; capacity })
  else begin
    let need_switch =
      t.pending_switch || size > Io_sched.capacity_left t.sched ~extent:t.active
    in
    let switch_result =
      if need_switch then begin
        let other = sibling t t.active in
        (* The sibling's records are superseded by the newest record on the
           active extent — but only once that record is durable, so the
           reset must not be issued before it. *)
        match Io_sched.reset t.sched ~extent:other ~input:t.last_dep with
        | Error e -> Error (Sched e)
        | Ok _reset_dep ->
          t.active <- other;
          t.pending_switch <- false;
          Obs.Counter.incr t.m_switches;
          Ok ()
      end
      else Ok ()
    in
    match switch_result with
    | Error _ as e -> e
    | Ok () -> (
      let input = Dep.and_ input t.last_dep in
      match Io_sched.append t.sched ~extent:t.active ~data:record ~input with
      | Error e -> Error (Sched e)
      | Ok dep ->
        t.gen <- t.gen + 1;
        t.last_dep <- dep;
        Obs.Counter.incr t.m_appends;
        Ok dep)
  end

let recover t =
  Obs.Counter.incr t.m_recovers;
  (* Recovery reads are a controlled post-reboot sequence; injected runtime
     IO faults target the request path, so suspend arming here. *)
  Disk.with_faults_suspended (Io_sched.disk t.sched) (fun () ->
      let candidates =
        List.concat_map
          (fun extent -> List.map (fun (g, p, e) -> (g, p, e, extent)) (scan_extent t extent))
          [ t.extent_a; t.extent_b ]
      in
      match candidates with
      | [] ->
        t.gen <- 0;
        t.last_dep <- Dep.trivial;
        t.active <- t.extent_a;
        (* A torn record may be all that is on the extent; appending behind
           it would hide the new records from scans, so force a switch
           (which resets the sibling) before the next append. *)
        t.pending_switch <- Io_sched.soft_ptr t.sched ~extent:t.extent_a > 0;
        None
      | _ ->
        let (gen, payload, end_off, extent) =
          List.fold_left
            (fun ((g0, _, _, _) as best) ((g, _, _, _) as c) -> if g > g0 then c else best)
            (List.hd candidates) (List.tl candidates)
        in
        t.gen <- gen;
        t.last_dep <- Dep.trivial;
        t.active <- extent;
        (* A torn record may sit beyond the last valid one; appending after
           it would hide later records from future scans, so force the next
           append onto the sibling extent. *)
        t.pending_switch <- end_off <> Io_sched.soft_ptr t.sched ~extent;
        Some (gen, payload))
