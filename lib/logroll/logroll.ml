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

(* Magic, u64 generation, u32 payload length, u32 CRC. *)
let overhead = String.length magic + 8 + 4 + 4

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

(* A record opens an extent when the active extent is empty or a torn tail
   forces the switch. A record that does not fit the rest of the active
   extent moves to the sibling, so it is asked for again as an opening
   record. *)
let append t ~payload ~input =
  let gen = t.gen + 1 in
  let opens = t.pending_switch || Io_sched.soft_ptr t.sched ~extent:t.active = 0 in
  let record = encode ~gen ~payload:(payload ~opens) in
  let need_switch =
    t.pending_switch || String.length record > Io_sched.capacity_left t.sched ~extent:t.active
  in
  let record =
    if need_switch && not opens then encode ~gen ~payload:(payload ~opens:true) else record
  in
  let size = String.length record in
  let capacity = Io_sched.extent_size t.sched in
  if size > capacity then Error (Record_too_large { size; capacity })
  else begin
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
        t.gen <- gen;
        t.last_dep <- dep;
        Obs.Counter.incr t.m_appends;
        Ok dep)
  end

(* Generations ascend along an extent, so its newest record is its last
   valid one, and the extent holding the newest generation holds the chain
   recovery replays. *)
let recover t =
  Obs.Counter.incr t.m_recovers;
  (* Recovery reads are a controlled post-reboot sequence; injected runtime
     IO faults target the request path, so suspend arming here. *)
  Disk.with_faults_suspended (Io_sched.disk t.sched) (fun () ->
      let newest records = match List.rev records with (g, _, _) :: _ -> g | [] -> 0 in
      let a = scan_extent t t.extent_a and b = scan_extent t t.extent_b in
      let extent, records = if newest b > newest a then (t.extent_b, b) else (t.extent_a, a) in
      match List.rev records with
      | [] ->
        t.gen <- 0;
        t.last_dep <- Dep.trivial;
        t.active <- t.extent_a;
        (* A torn record may be all that is on the extent; appending behind
           it would hide the new records from scans, so force a switch
           (which resets the sibling) before the next append. *)
        t.pending_switch <- Io_sched.soft_ptr t.sched ~extent:t.extent_a > 0;
        []
      | (gen, _, end_off) :: _ ->
        t.gen <- gen;
        t.last_dep <- Dep.trivial;
        t.active <- extent;
        (* A torn record may sit beyond the last valid one; appending after
           it would hide later records from future scans, so force the next
           append onto the sibling extent. *)
        t.pending_switch <- end_off <> Io_sched.soft_ptr t.sched ~extent;
        List.map (fun (g, payload, _) -> (g, payload)) records)
