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

type t = {
  sched : Io_sched.t;
  roll : Logroll.t;
  initial_owners : owner array;
  owners : owner array;
  obs : Obs.t;
  m_records : Obs.Counter.t;
  m_withheld : Obs.Counter.t;
  m_recovers : Obs.Counter.t;
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
    m_withheld = Obs.counter ~coverage:true obs "superblock.free_claim_withheld";
    m_recovers = Obs.counter obs "superblock.recover";
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

(* Extents with a Free transition whose basis (evacuations, index updates,
   the reset) is not durable yet are rendered as still Data-owned: a record
   must never claim Free ahead of the transition's dependency. Rendering is
   what delays the claim, so records themselves never need input
   dependencies — which is what keeps the writeback graph acyclic.

   Layout (little-endian): u32 extent count, then per extent a u8 owner
   tag, the u32 epoch and the u32 soft pointer. One pass over the pending
   transitions rewrites the withheld extents' tags. *)
let encode t =
  let n = Array.length t.owners in
  let b = Bytes.create (4 + (n * 9)) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  for i = 0 to n - 1 do
    let at = 4 + (i * 9) in
    Bytes.set_uint8 b at (owner_tag t.owners.(i));
    Bytes.set_int32_le b (at + 1) (Int32.of_int (Io_sched.epoch t.sched ~extent:i));
    Bytes.set_int32_le b (at + 5) (Int32.of_int (Io_sched.soft_ptr t.sched ~extent:i))
  done;
  List.iter
    (fun (i, _) ->
      if owner_equal t.owners.(i) Free then Bytes.set_uint8 b (4 + (i * 9)) (owner_tag Data))
    t.pending_free;
  Bytes.unsafe_to_string b

let decode payload n =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string payload in
  let* count32 = Codec.Reader.u32 r in
  let count = Int32.to_int count32 in
  if count <> n then Error (Codec.Invalid "extent count mismatch")
  else begin
    let owners = Array.make n Free in
    let rec go i =
      if i = n then Ok owners
      else
        let* tag = Codec.Reader.u8 r in
        let* _epoch = Codec.Reader.u32 r in
        let* _ptr = Codec.Reader.u32 r in
        match owner_of_tag tag with
        | None -> Error (Codec.Invalid "owner tag")
        | Some o ->
          owners.(i) <- o;
          go (i + 1)
    in
    go 0
  end

(* A flush first ripens Free transitions whose dependency has persisted
   (they may now be recorded), then writes one record with trivial input.
   Fault #6 ripens transitions regardless of persistence right after a
   reboot, so a crash can leave a durable Free claim whose basis was
   lost. *)
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
  match Logroll.append t.roll ~payload:(encode t) ~input:Dep.trivial with
  | Error e -> Error (Roll e)
  | Ok dep ->
    Dep.Promise.bind t.promise dep;
    t.promise <- Dep.Promise.create ();
    t.dirty <- false;
    t.just_rebooted <- false;
    Ok dep

let recover t =
  Obs.Counter.incr t.m_recovers;
  t.pending_free <- [];
  t.promise <- Dep.Promise.create ();
  t.dirty <- false;
  t.just_rebooted <- true;
  match Logroll.recover t.roll with
  | None ->
    Array.blit t.initial_owners 0 t.owners 0 (Array.length t.owners);
    false
  | Some (_gen, payload) -> (
    match decode payload (Array.length t.owners) with
    | Ok owners ->
      Array.blit owners 0 t.owners 0 (Array.length owners);
      true
    | Error _ ->
      (* A record that passed the logroll CRC but fails structural decode
         indicates version skew; fall back to the creation state. *)
      Array.blit t.initial_owners 0 t.owners 0 (Array.length t.owners);
      false)

let generation t = Logroll.generation t.roll
