open Util

type op =
  | C_put of int
  | C_get of int
  | C_drop of int
  | C_reclaim
  | C_pump of int
  | C_fail_once of int

let pp_op fmt = function
  | C_put n -> Format.fprintf fmt "Put(%d bytes)" n
  | C_get i -> Format.fprintf fmt "Get(#%d)" i
  | C_drop i -> Format.fprintf fmt "Drop(#%d)" i
  | C_reclaim -> Format.pp_print_string fmt "Reclaim"
  | C_pump n -> Format.fprintf fmt "Pump(%d)" n
  | C_fail_once e -> Format.fprintf fmt "FailDiskOnce(extent %d)" e

type failure = {
  step : int;
  op : op;
  message : string;
}

let pp_failure fmt f = Format.fprintf fmt "step %d (%a): %s" f.step pp_op f.op f.message

type outcome = Passed | Failed of failure

let disk_config = { Disk.extent_count = 8; pages_per_extent = 8; page_size = 64 }

type chunk_ref = {
  id : int;
  mutable loc : Chunk.Locator.t;
  payload : string;
  mutable alive : bool;
}

type state = {
  disk : Disk.t;
  sched : Io_sched.t;
  cs : Chunk.Chunk_store.t;
  model : Model.Chunk_model.t;
  mutable chunks : chunk_ref list;  (** newest first *)
  armed : (int, unit) Hashtbl.t;  (** extents with an unconsumed one-shot failure *)
}

let make_state seed =
  let disk = Disk.create disk_config in
  let sched = Io_sched.create ~seed:(Int64.of_int seed) disk in
  let cache = Cache.create sched in
  let sb = Superblock.create sched ~extents:(0, 1) ~reserved:[ 0; 1 ] in
  let cs =
    Chunk.Chunk_store.create sched ~cache ~superblock:sb ~rng:(Rng.create (Int64.of_int (seed + 1)))
  in
  {
    disk;
    sched;
    cs;
    model = Model.Chunk_model.create ();
    chunks = [];
    armed = Hashtbl.create 4;
  }

exception Check of string

(* A read/write error is excused once per armed extent: the one-shot
   failure is consumed by whichever IO hits it first. *)
let consume_arming st extent =
  if Hashtbl.mem st.armed extent then begin
    Hashtbl.remove st.armed extent;
    true
  end
  else false

let any_armed st = Hashtbl.length st.armed > 0

let nth_chunk st i =
  match st.chunks with
  | [] -> None
  | l -> Some (List.nth l (i mod List.length l))

let apply st step_no op =
  let failf fmt = Format.kasprintf (fun m -> raise (Check m)) fmt in
  match op with
  | C_put size -> (
    let payload = String.init size (fun i -> Char.chr ((step_no + i) mod 256)) in
    match Chunk.Chunk_store.put st.cs ~owner:(Chunk.Chunk_format.Shard (string_of_int step_no)) ~payload with
    | Ok (loc, _dep) -> (
      match Model.Chunk_model.track st.model ~locator:loc ~payload with
      | Ok () ->
        st.chunks <- { id = step_no; loc; payload; alive = true } :: st.chunks
      | Error _ -> failf "locator uniqueness violated: %a" Chunk.Locator.pp loc)
    | Error Chunk.Chunk_store.No_space -> ()
    | Error (Chunk.Chunk_store.Io _) when any_armed st -> Hashtbl.reset st.armed
    | Error e -> failf "put failed: %a" Chunk.Chunk_store.pp_error e)
  | C_get i -> (
    match nth_chunk st i with
    | None -> ()
    | Some c -> (
      match Chunk.Chunk_store.get st.cs c.loc with
      | Ok got ->
        if c.alive then begin
          match Model.Chunk_model.expected st.model ~locator:c.loc with
          | Some expected when String.equal got.Chunk.Chunk_format.payload expected -> ()
          | Some _ -> failf "payload divergence on chunk #%d" c.id
          | None -> failf "model lost live chunk #%d" c.id
        end
        else if not (String.equal got.Chunk.Chunk_format.payload c.payload) then
          (* a dead chunk may still be readable, but never as wrong data *)
          failf "dead chunk #%d read back wrong bytes" c.id
      | Error _ when not c.alive -> ()
      | Error _ when consume_arming st c.loc.Chunk.Locator.extent -> ()
      | Error e -> failf "live chunk #%d unreadable: %a" c.id Chunk.Chunk_store.pp_error e))
  | C_drop i -> (
    match nth_chunk st i with
    | None -> ()
    | Some c ->
      if c.alive then begin
        c.alive <- false;
        Model.Chunk_model.drop st.model ~locator:c.loc
      end)
  | C_reclaim -> (
    let target =
      List.find_opt (fun c -> not c.alive) (List.rev st.chunks)
      |> Option.map (fun c -> c.loc.Chunk.Locator.extent)
    in
    match target with
    | None -> ()
    | Some extent -> (
      let classify owner loc =
        let live c =
          c.alive
          && Chunk.Locator.equal c.loc loc
          && Chunk.Chunk_format.owner_equal owner (Chunk.Chunk_format.Shard (string_of_int c.id))
        in
        if List.exists live st.chunks then `Live else `Dead
      in
      let relocate owner ~old_loc ~new_loc ~new_dep =
        List.iter
          (fun c ->
            if
              c.alive
              && Chunk.Locator.equal c.loc old_loc
              && Chunk.Chunk_format.owner_equal owner
                   (Chunk.Chunk_format.Shard (string_of_int c.id))
            then begin
              Model.Chunk_model.drop st.model ~locator:old_loc;
              (match Model.Chunk_model.track st.model ~locator:new_loc ~payload:c.payload with
              | Ok () -> ()
              | Error _ ->
                raise (Check (Format.asprintf "evacuation re-used locator %a" Chunk.Locator.pp new_loc)));
              c.loc <- new_loc
            end)
          st.chunks;
        new_dep
      in
      match Chunk.Chunk_store.reclaim st.cs ~extent ~index_basis:Dep.trivial ~classify ~relocate with
      | Ok _ ->
        (* chunks that were on the reclaimed extent and dead are gone *)
        ()
      | Error Chunk.Chunk_store.No_space -> ()
      | Error (Chunk.Chunk_store.Io _) when consume_arming st extent ->
        (* correct code aborts the reclamation on a read error *)
        ()
      | Error e -> failf "reclaim failed: %a" Chunk.Chunk_store.pp_error e))
  | C_pump n ->
    ignore (Io_sched.pump ~max_ios:n st.sched);
    (* pumping may consume armings through write IO; re-sync our view *)
    List.iter
      (fun (extent, ()) ->
        match Disk.consume_fault st.disk ~extent with
        | Ok () -> Hashtbl.remove st.armed extent
        | Error _ ->
          (* still armed: consume_fault just consumed it, so re-arm *)
          Disk.fail_once st.disk ~extent)
      (Util.Tbl.sorted_bindings st.armed)
  | C_fail_once extent ->
    Hashtbl.replace st.armed extent ();
    Disk.fail_once st.disk ~extent

(* After every step, live chunks must read back exactly (tolerating a
   pending one-shot failure). *)
let check_all st =
  List.iter
    (fun c ->
      if c.alive then begin
        match Chunk.Chunk_store.get st.cs c.loc with
        | Ok got ->
          if not (String.equal got.Chunk.Chunk_format.payload c.payload) then
            raise (Check (Printf.sprintf "live chunk #%d diverged" c.id))
        | Error _ when consume_arming st c.loc.Chunk.Locator.extent -> ()
        | Error e ->
          raise
            (Check (Format.asprintf "live chunk #%d unreadable: %a" c.id Chunk.Chunk_store.pp_error e))
      end)
    st.chunks

let gen_op rng st =
  match Rng.weighted rng [ (6, `Put); (5, `Get); (3, `Drop); (3, `Reclaim); (2, `Pump); (1, `Fail) ] with
  | `Put ->
    (* bias sizes toward page multiples, like the store-level generator *)
    let size =
      if Rng.chance rng 0.5 then max 0 ((1 + Rng.int rng 3) * 64 - Rng.int_in rng 40 56)
      else Rng.int rng 150
    in
    C_put size
  | `Get -> C_get (Rng.int rng (max 1 (List.length st.chunks)))
  | `Drop -> C_drop (Rng.int rng (max 1 (List.length st.chunks)))
  | `Reclaim -> C_reclaim
  | `Pump -> C_pump (1 + Rng.int rng 6)
  | `Fail -> C_fail_once (Rng.int rng disk_config.Disk.extent_count)

let run ~seed ~length =
  let st = make_state seed in
  let rng = Rng.create (Int64.of_int (seed + 99)) in
  let ops = ref [] in
  let outcome = ref Passed in
  (try
     for step = 0 to length - 1 do
       let op = gen_op rng st in
       ops := op :: !ops;
       (try apply st step op
        with Check message -> raise (Check message));
       check_all st
     done
   with Check message ->
     let op = List.hd !ops in
     outcome := Failed { step = List.length !ops - 1; op; message });
  (List.rev !ops, !outcome)
