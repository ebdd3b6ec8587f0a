open Util

type owner = Reserved | Free | Data

let pp_owner fmt = function
  | Reserved -> Format.pp_print_string fmt "reserved"
  | Free -> Format.pp_print_string fmt "free"
  | Data -> Format.pp_print_string fmt "data"

let owner_equal a b =
  match a, b with
  | Reserved, Reserved | Free, Free | Data, Data -> true
  | (Reserved | Free | Data), _ -> false

type error = Roll of Logroll.error

let pp_error fmt (Roll e) = Logroll.pp_error fmt e
let error_class (Roll e) = Logroll.error_class e

type entry = { owner : owner; epoch : int; soft_ptr : int }

(* A decoded payload: every extent's entry, or the changed ones. *)
type record = Checkpoint of entry array | Delta of (int * entry) list

type t = {
  sched : Io_sched.t;
  roll : Logroll.t;
  initial_owners : owner array;
  owners : owner array;
  obs : Obs.t;
  m_records : Obs.Counter.t;
  m_checkpoints : Obs.Counter.t;
  m_record_bytes : Obs.Counter.t;
  m_withheld : Obs.Counter.t;
  m_recovers : Obs.Counter.t;
  mutable rendered : int array;
      (** the previous appended record's rendering, three ints per extent
          (owner tag, epoch, soft pointer): what the next delta is taken
          against *)
  mutable next : int array;  (** the rendering of the record being written *)
  mutable checkpoint_due : bool;
      (** [rendered] does not describe the newest record on the log extent
          (none written yet, or a recovery since), so the next record is a
          checkpoint wherever it lands *)
  mutable pending_free : (int * Dep.t) list;
      (** Free transitions whose basis (evacuations, index updates, reset)
          may not be durable yet; recorded only by the second flush record *)
  mutable promise : Dep.Promise.promise;
  mutable dirty : bool;
  mutable just_rebooted : bool;
}

let create ?obs sched ~extents ~reserved =
  let obs = match obs with Some o -> o | None -> Io_sched.obs sched in
  let n = Io_sched.extent_count sched in
  let owners = Array.make n Free in
  List.iter
    (fun e ->
      if e < 0 || e >= n then invalid_arg "Superblock.create: reserved extent out of range";
      owners.(e) <- Reserved)
    reserved;
  let a, b = extents in
  if owners.(a) <> Reserved || owners.(b) <> Reserved then
    invalid_arg "Superblock.create: own extents must be reserved";
  {
    sched;
    roll = Logroll.create ~obs sched ~extents ~name:"superblock";
    initial_owners = Array.copy owners;
    owners;
    obs;
    m_records = Obs.counter ~coverage:true obs "superblock.record";
    m_checkpoints = Obs.counter ~coverage:true obs "superblock.checkpoint";
    m_record_bytes = Obs.counter obs "superblock.record_bytes";
    m_withheld = Obs.counter ~coverage:true obs "superblock.free_claim_withheld";
    m_recovers = Obs.counter obs "superblock.recover";
    rendered = Array.make (3 * n) 0;
    next = Array.make (3 * n) 0;
    checkpoint_due = true;
    pending_free = [];
    promise = Dep.Promise.create ();
    dirty = false;
    just_rebooted = false;
  }

let owner t ~extent = t.owners.(extent)

let set_owner t ~extent o ~dep =
  t.owners.(extent) <- o;
  (match o with
  | Free -> t.pending_free <- (extent, dep) :: t.pending_free
  | Data | Reserved ->
    (* Re-allocation supersedes every not-yet-recorded Free transition of
       the extent; one left behind would withhold the extent's next Free
       claim until a superseded dependency persists. *)
    t.pending_free <- List.filter (fun (e, _) -> e <> extent) t.pending_free);
  t.dirty <- true

let extents_with t o =
  let acc = ref [] in
  Array.iteri (fun i ow -> if owner_equal ow o then acc := i :: !acc) t.owners;
  List.rev !acc

let free_extents t = extents_with t Free
let free_count t = Array.fold_left (fun n o -> if owner_equal o Free then n + 1 else n) 0 t.owners
let data_extents t = extents_with t Data

let note_append t ~extent =
  ignore extent;
  t.dirty <- true;
  (* Fault #8: writes did not include a dependency on the soft write
     pointer update. *)
  if Faults.enabled Faults.F8_missing_pointer_dep then begin
    Faults.record_fired Faults.F8_missing_pointer_dep;
    Dep.trivial
  end
  else Dep.Promise.dep t.promise

let dirty t = t.dirty

let owner_tag = function Reserved -> 0 | Free -> 1 | Data -> 2

let owner_of_tag = function
  | 0 -> Some Reserved
  | 1 -> Some Free
  | 2 -> Some Data
  | _ -> None

(* [render t r] writes each extent's triple at [3i] in [r]: its owner tag,
   epoch and soft pointer. Extents with a Free transition whose basis
   (evacuations, index updates, the reset) is not durable yet are rendered
   as still Data-owned: a record must never claim Free ahead of the
   transition's dependency. Rendering is what delays the claim, so records
   themselves never need input dependencies — which is what keeps the
   writeback graph acyclic. *)
let render t r =
  for i = 0 to Array.length t.owners - 1 do
    r.(3 * i) <- owner_tag t.owners.(i);
    r.((3 * i) + 1) <- Io_sched.epoch t.sched ~extent:i;
    r.((3 * i) + 2) <- Io_sched.soft_ptr t.sched ~extent:i
  done;
  List.iter
    (fun (i, _) -> if owner_equal t.owners.(i) Free then r.(3 * i) <- owner_tag Data)
    t.pending_free

(* Layout (little-endian): a kind byte, then for a checkpoint the u32
   extent count and per extent the u8 owner tag, u32 epoch and u32 soft
   pointer; for a delta the u32 count of changed extents and per changed
   extent its u32 index and the same nine bytes, indices ascending. *)
let kind_checkpoint = 0
let kind_delta = 1

let write_entry w r i =
  Codec.Writer.u8 w r.(3 * i);
  Codec.Writer.u32 w (Int32.of_int r.((3 * i) + 1));
  Codec.Writer.u32 w (Int32.of_int r.((3 * i) + 2))

let encode_checkpoint r =
  let n = Array.length r / 3 in
  let w = Codec.Writer.create ~capacity:(5 + (9 * n)) () in
  Codec.Writer.u8 w kind_checkpoint;
  Codec.Writer.list w (fun w i -> write_entry w r i) (List.init n Fun.id);
  Codec.Writer.contents w

(* The extents whose triple in [r] differs from [prev]'s, ascending. The
   annotation keeps the comparisons on ints rather than polymorphic. *)
let changed ~(prev : int array) (r : int array) =
  let acc = ref [] in
  for i = (Array.length r / 3) - 1 downto 0 do
    let at = 3 * i in
    if r.(at) <> prev.(at) || r.(at + 1) <> prev.(at + 1) || r.(at + 2) <> prev.(at + 2) then
      acc := i :: !acc
  done;
  !acc

let encode_delta ~prev r =
  let changed = changed ~prev r in
  let w = Codec.Writer.create ~capacity:(5 + (13 * List.length changed)) () in
  Codec.Writer.u8 w kind_delta;
  Codec.Writer.list w
    (fun w i ->
      Codec.Writer.u32 w (Int32.of_int i);
      write_entry w r i)
    changed;
  Codec.Writer.contents w

let u32 r =
  let open Codec.Syntax in
  let+ v = Codec.Reader.u32 r in
  Int32.to_int v land 0xFFFF_FFFF

let decode_entry r =
  let open Codec.Syntax in
  let* tag = Codec.Reader.u8 r in
  let* epoch = u32 r in
  let* soft_ptr = u32 r in
  match owner_of_tag tag with
  | None -> Error (Codec.Invalid "owner tag")
  | Some owner -> Ok { owner; epoch; soft_ptr }

let rec ascending = function
  | (i, _) :: ((j, _) :: _ as rest) -> i < j && ascending rest
  | [ _ ] | [] -> true

let decode_record ~extents payload =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string payload in
  let* kind = Codec.Reader.u8 r in
  let* record =
    if kind = kind_checkpoint then
      let* entries = Codec.Reader.list ~max:extents ~what:"extent" r decode_entry in
      if List.length entries <> extents then Error (Codec.Invalid "extent count mismatch")
      else Ok (Checkpoint (Array.of_list entries))
    else if kind = kind_delta then
      let* changes =
        Codec.Reader.list ~max:extents ~what:"changed extent" r (fun r ->
            let* i = u32 r in
            if i >= extents then Error (Codec.Invalid "extent index")
            else
              let+ e = decode_entry r in
              (i, e))
      in
      if ascending changes then Ok (Delta changes)
      else Error (Codec.Invalid "extent indices not ascending")
    else Error (Codec.Invalid "record kind")
  in
  let+ () = Codec.Reader.expect_end r in
  record

let replay ~extents payloads =
  let open Codec.Syntax in
  let apply state payload =
    let* state = state in
    let* record = decode_record ~extents payload in
    match (record, state) with
    | Checkpoint entries, _ -> Ok (Some entries)
    | Delta changes, Some entries ->
      List.iter (fun (i, e) -> entries.(i) <- e) changes;
      Ok state
    | Delta _, None -> Error (Codec.Invalid "chain opens with a delta")
  in
  match List.fold_left apply (Ok None) payloads with
  | Ok (Some entries) -> Ok entries
  | Ok None -> Error (Codec.Invalid "empty chain")
  | Error e -> Error e

(* A flush first ripens Free transitions whose dependency has persisted
   (they may now be recorded), then writes one record with trivial input:
   a checkpoint when it opens its log extent (or follows a recovery), else
   the extents that changed since the previous record. Fault #6 ripens
   transitions regardless of persistence right after a reboot, so a crash
   can leave a durable Free claim whose basis was lost. *)
let flush t =
  let ripen () =
    if Faults.enabled Faults.F6_superblock_ownership_dep && t.just_rebooted then begin
      Faults.record_fired Faults.F6_superblock_ownership_dep;
      t.pending_free <- []
    end
    else t.pending_free <- List.filter (fun (_, dep) -> not (Dep.is_persistent dep)) t.pending_free
  in
  ripen ();
  if t.pending_free <> [] then Obs.Counter.incr t.m_withheld;
  Obs.Counter.incr t.m_records;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"superblock" "record"
      [ ("withheld", string_of_int (List.length t.pending_free)) ];
  render t t.next;
  let checkpoint = ref false and written = ref "" in
  let payload ~opens =
    checkpoint := opens || t.checkpoint_due;
    written :=
      if !checkpoint then encode_checkpoint t.next
      else encode_delta ~prev:t.rendered t.next;
    !written
  in
  match Logroll.append t.roll ~payload ~input:Dep.trivial with
  | Error e -> Error (Roll e)
  | Ok dep ->
    if !checkpoint then Obs.Counter.incr t.m_checkpoints;
    Obs.Counter.add t.m_record_bytes (String.length !written + Logroll.overhead);
    let previous = t.rendered in
    t.rendered <- t.next;
    t.next <- previous;
    t.checkpoint_due <- false;
    Dep.Promise.bind t.promise dep;
    t.promise <- Dep.Promise.create ();
    t.dirty <- false;
    t.just_rebooted <- false;
    Ok dep

(* Replays the chain on the log extent holding the newest generation. The
   rendering the next delta would be taken against is not kept, so the
   next record is a checkpoint. *)
let recover t =
  Obs.Counter.incr t.m_recovers;
  t.pending_free <- [];
  t.promise <- Dep.Promise.create ();
  t.dirty <- false;
  t.just_rebooted <- true;
  t.checkpoint_due <- true;
  let n = Array.length t.owners in
  match replay ~extents:n (List.map snd (Logroll.recover t.roll)) with
  | Ok entries ->
    Array.iteri (fun i e -> t.owners.(i) <- e.owner) entries;
    true
  | Error _ ->
    (* No record (a fresh disk), or a chain that fails structural decode
       (version skew): fall back to the creation state. *)
    Array.blit t.initial_owners 0 t.owners 0 n;
    false

let generation t = Logroll.generation t.roll
