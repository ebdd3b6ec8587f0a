open Util

type error =
  | No_space
  | Io of Io_sched.error
  | Corrupt of Codec.error
  | Stale_locator of Locator.t
  | Superblock of Superblock.error

let pp_error fmt = function
  | No_space -> Format.pp_print_string fmt "no space available"
  | Io e -> Io_sched.pp_error fmt e
  | Corrupt e -> Format.fprintf fmt "corrupt chunk: %a" Codec.pp_error e
  | Stale_locator loc -> Format.fprintf fmt "stale locator %a" Locator.pp loc
  | Superblock e -> Superblock.pp_error fmt e

let error_class = function
  | No_space -> `Resource
  | Io e -> Io_sched.error_class e
  | Corrupt _ -> `Fatal
  | Stale_locator _ -> `Fatal
  | Superblock e -> Superblock.error_class e

type metrics = {
  m_puts : Obs.Counter.t;
  m_gets : Obs.Counter.t;
  m_stale : Obs.Counter.t;
  m_corrupt : Obs.Counter.t;
  m_scan_valid : Obs.Counter.t;
  m_scan_invalid : Obs.Counter.t;
  m_evacuated : Obs.Counter.t;
  m_dropped : Obs.Counter.t;
  m_reclamations : Obs.Counter.t;
  m_leaked : Obs.Counter.t;
  m_batch_groups : Obs.Counter.t;
  m_batch_group_chunks : Obs.Histogram.t;
}

type t = {
  sched : Io_sched.t;
  cache : Cache.t;
  sb : Superblock.t;
  rng : Rng.t;
  obs : Obs.t;
  m : metrics;
  mutable open_ext : int option;
  mutable reclaiming : int option;
  mutable uuid_bias : float;
}

let create ?obs sched ~cache ~superblock ~rng =
  let obs = match obs with Some o -> o | None -> Io_sched.obs sched in
  {
    sched;
    cache;
    sb = superblock;
    rng;
    obs;
    m =
      {
        m_puts = Obs.counter obs "chunk.put";
        m_gets = Obs.counter obs "chunk.get";
        m_stale = Obs.counter ~coverage:true obs "chunk.get.stale_locator";
        m_corrupt = Obs.counter ~coverage:true obs "chunk.get.corrupt";
        m_scan_valid = Obs.counter ~coverage:true obs "reclaim.scan.valid_frame";
        m_scan_invalid = Obs.counter ~coverage:true obs "reclaim.scan.invalid_frame";
        m_evacuated = Obs.counter ~coverage:true obs "reclaim.evacuated";
        m_dropped = Obs.counter ~coverage:true obs "reclaim.dropped";
        m_reclamations = Obs.counter obs "chunk.reclamation";
        m_leaked = Obs.counter obs "chunk.leaked_extent";
        m_batch_groups = Obs.counter obs "chunk.batch_group";
        m_batch_group_chunks =
          Obs.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64. ] obs
            "chunk.batch_group_chunks";
      };
    open_ext = None;
    reclaiming = None;
    uuid_bias = 0.0;
  }

let sched t = t.sched
let obs t = t.obs
let set_uuid_bias t p = t.uuid_bias <- p
let close_open_extent t = t.open_ext <- None

let fresh_uuid t =
  let u = Uuid.generate t.rng in
  if Rng.chance t.rng t.uuid_bias then begin
    (* Bias toward UUIDs whose trailing bytes equal the frame magic — the
       collision ingredient of issue #10. *)
    let b = Bytes.of_string (Uuid.to_string u) in
    Bytes.blit_string Chunk_format.magic 0 b
      (Uuid.size - String.length Chunk_format.magic)
      (String.length Chunk_format.magic);
    Uuid.of_string_exn (Bytes.to_string b)
  end
  else u

let align_up n align = (n + align - 1) / align * align

(* An extent appends may go to: not being reclaimed, no reset staged, not
   quarantined. *)
let usable t extent =
  t.reclaiming <> Some extent
  && (not (Io_sched.has_pending_reset t.sched ~extent))
  && not (Io_sched.quarantined t.sched ~extent)

(* Pick an extent with at least [need] bytes available: the open extent if
   it fits, otherwise the lowest recorded-Free extent (staging a reset first
   when it carries pre-crash bytes — safe because a durably recorded Free
   extent is guaranteed unreferenced). *)
let allocate t ~need ~privileged =
  let fits extent = need <= Io_sched.capacity_left t.sched ~extent in
  let usable = usable t in
  match t.open_ext with
  | Some extent when fits extent && usable extent -> Ok extent
  | _ -> (
    (* Prefer re-opening a partially filled data extent (appends continue at
       its write pointer) before consuming Free extents. *)
    match
      List.find_opt (fun e -> usable e && fits e) (Superblock.data_extents t.sb)
    with
    | Some extent ->
      t.open_ext <- Some extent;
      Ok extent
    | None ->
    let candidates = List.filter usable (Superblock.free_extents t.sb) in
    (* Headroom: normal puts never consume the last free extent, so
       reclamation always has somewhere to evacuate live chunks to — and so
       the index can always write the run that empties the memtable.
       Evacuations and index writes are exactly the writes that turn
       garbage collectible, so they may spend the reserve. *)
    let candidates =
      if t.reclaiming = None && not privileged then
        (match candidates with [] | [ _ ] -> [] | _ -> candidates)
      else candidates
    in
    let rec pick = function
      | [] -> Error No_space
      | extent :: rest ->
        if Io_sched.soft_ptr t.sched ~extent > 0 then begin
          match Io_sched.reset t.sched ~extent ~input:Dep.trivial with
          | Error e -> Error (Io e)
          | Ok _ ->
            Cache.note_reset t.cache ~extent;
            if fits extent then Ok extent else pick rest
        end
        else if fits extent then Ok extent
        else pick rest
    in
    match pick candidates with
    | Error _ as e -> e
    | Ok extent ->
      Superblock.set_owner t.sb ~extent Superblock.Data ~dep:Dep.trivial;
      t.open_ext <- Some extent;
      Ok extent)

let ( let* ) = Result.bind

(* Group commit for chunks. One group = a run of frames packed into a
   single extent, staged as ONE append and covered by ONE superblock record
   promise; every chunk of the group shares the merged write's dependency.
   Errors mid-batch abandon the remaining items: already-staged groups are
   unreferenced (the index has not seen their locators yet), which is the
   same garbage an interrupted sequential put leaves, and reclamation
   collects it. *)
type group = {
  g_extent : int;
  g_start : int;
  mutable g_bytes : int;
  mutable g_bufs : string list;  (** reversed *)
  mutable g_chunks : (int * int) list;  (** reversed [(rel_off, frame_len)] *)
}

let put_batch ?(input = Dep.trivial) t ~items =
  let ps = Io_sched.page_size t.sched in
  let esize = Io_sched.extent_size t.sched in
  let encoded =
    List.map
      (fun (owner, payload) ->
        let frame = Chunk_format.encode ~uuid:(fresh_uuid t) ~owner ~payload in
        (* Index runs may spend the reserve: see [allocate]. *)
        let privileged =
          match owner with Chunk_format.Index_run _ -> true | Chunk_format.Shard _ -> false
        in
        (frame, align_up (String.length frame) ps, privileged))
      items
  in
  if List.exists (fun (_, padded, _) -> padded > esize) encoded then Error No_space
  else begin
    let results = ref [] in
    let group = ref None in
    let flush_group () =
      match !group with
      | None -> Ok ()
      | Some g ->
        group := None;
        let data = String.concat "" (List.rev g.g_bufs) in
        let* append_dep =
          Result.map_error (fun e -> Io e)
            (Io_sched.append t.sched ~extent:g.g_extent ~data ~input)
        in
        (* No cache invalidation needed on append: extents are append-only,
           so a cached page is always a prefix of the current content —
           except after a reset, which is exactly what note_reset handles
           (and what fault #2 breaks). Write-allocating caches insert the
           new pages. *)
        Cache.fill t.cache ~extent:g.g_extent ~off:g.g_start data;
        let pointer_dep = Superblock.note_append t.sb ~extent:g.g_extent in
        let dep = Dep.and_ append_dep pointer_dep in
        let epoch = Io_sched.epoch t.sched ~extent:g.g_extent in
        let chunks = List.rev g.g_chunks in
        List.iter
          (fun (rel, flen) ->
            Obs.Counter.incr t.m.m_puts;
            results :=
              ( {
                  Locator.extent = g.g_extent;
                  epoch;
                  off = g.g_start + rel;
                  frame_len = flen;
                },
                dep )
              :: !results)
          chunks;
        Obs.Counter.incr t.m.m_batch_groups;
        Obs.Histogram.observe t.m.m_batch_group_chunks (float_of_int (List.length chunks));
        if Obs.tracing t.obs then
          Obs.emit t.obs ~layer:"chunk" "put_group"
            [
              ("extent", string_of_int g.g_extent);
              ("chunks", string_of_int (List.length chunks));
              ("bytes", string_of_int (String.length data));
            ];
        Ok ()
    in
    let rec go = function
      | [] -> flush_group ()
      | (frame, padded, privileged) :: rest ->
        let flen = String.length frame in
        let pad = String.make (padded - flen) '\000' in
        let extended =
          match !group with
          | Some g
            when usable t g.g_extent
                 && g.g_bytes + padded <= Io_sched.capacity_left t.sched ~extent:g.g_extent
            ->
            (* [capacity_left] reads the soft pointer, which the buffered
               group has not advanced yet; [g_bytes] accounts for it. *)
            g.g_chunks <- (g.g_bytes, flen) :: g.g_chunks;
            g.g_bufs <- (frame ^ pad) :: g.g_bufs;
            g.g_bytes <- g.g_bytes + padded;
            true
          | _ -> false
        in
        if extended then go rest
        else
          let* () = flush_group () in
          let* extent = allocate t ~need:padded ~privileged in
          group :=
            Some
              {
                g_extent = extent;
                g_start = Io_sched.soft_ptr t.sched ~extent;
                g_bytes = padded;
                g_bufs = [ frame ^ pad ];
                g_chunks = [ (0, flen) ];
              };
          go rest
    in
    let* () = go encoded in
    Ok (List.rev !results)
  end

(* One result per item, so the head is the chunk's. *)
let put ?input t ~owner ~payload =
  Result.map List.hd (put_batch ?input t ~items:[ (owner, payload) ])

let get t (loc : Locator.t) =
  Obs.Counter.incr t.m.m_gets;
  if loc.Locator.extent < 0 || loc.Locator.extent >= Io_sched.extent_count t.sched then
    Error (Stale_locator loc)
  else if loc.Locator.epoch <> Io_sched.epoch t.sched ~extent:loc.Locator.extent then begin
    Obs.Counter.incr t.m.m_stale;
    Error (Stale_locator loc)
  end
  else
    let* frame =
      Result.map_error (fun e -> Io e)
        (Cache.read t.cache ~extent:loc.Locator.extent ~off:loc.Locator.off
           ~len:loc.Locator.frame_len)
    in
    Result.map_error
      (fun e ->
        Obs.Counter.incr t.m.m_corrupt;
        Corrupt e)
      (Chunk_format.decode frame)

(* Scan one extent for decodable frames. Correct behaviour attempts a
   decode at every page boundary (so overlapping claims cannot hide later
   chunks); fault #10 skips by decoded frame length instead. Returns the
   chunks found, or the partial list plus [`Aborted] on a read error. *)
let scan t ~extent =
  let ps = Io_sched.page_size t.sched in
  let soft = Io_sched.soft_ptr t.sched ~extent in
  let found = ref [] in
  let f10 = Faults.enabled Faults.F10_uuid_magic_collision in
  let rec go pos =
    if pos + Chunk_format.prefix_len > soft then `Complete
    else
      match Io_sched.read t.sched ~extent ~off:pos ~len:Chunk_format.prefix_len with
      | Error (Io_sched.Io (Disk.Transient | Disk.Permanent)) -> `Aborted
      | Error _ -> `Complete
      | Ok prefix -> (
        match Chunk_format.decode_prefix prefix with
        | Error _ -> go (pos + ps)
        | Ok flen ->
          if pos + flen > soft then go (pos + ps)
          else (
            match Io_sched.read t.sched ~extent ~off:pos ~len:flen with
            | Error (Io_sched.Io (Disk.Transient | Disk.Permanent)) -> `Aborted
            | Error _ -> `Complete
            | Ok frame ->
              (* Fault #1: off-by-one for chunks whose payload is within a
                 byte of a page multiple — the scan under-reads the frame. *)
              let frame =
                if
                  Faults.enabled Faults.F1_reclaim_off_by_one
                  && (flen mod ps = 0 || flen mod ps = ps - 1)
                then begin
                  Faults.record_fired Faults.F1_reclaim_off_by_one;
                  String.sub frame 0 (flen - 1)
                end
                else frame
              in
              (match Chunk_format.decode ~check_crc:(not f10) frame with
              | Error _ ->
                Obs.Counter.incr t.m.m_scan_invalid;
                go (pos + ps)
              | Ok chunk ->
                Obs.Counter.incr t.m.m_scan_valid;
                let locator =
                  {
                    Locator.extent;
                    epoch = Io_sched.epoch t.sched ~extent;
                    off = pos;
                    frame_len = String.length frame;
                  }
                in
                found := (locator, chunk) :: !found;
                if f10 then begin
                  Faults.record_fired Faults.F10_uuid_magic_collision;
                  (* skip by frame length: "reclamation does not expect
                     overlapping chunks" *)
                  go (align_up (pos + flen) ps)
                end
                else go (pos + ps))))
  in
  let outcome = go 0 in
  (List.rev !found, outcome)

let reclaim t ~extent ~index_basis ~classify ~relocate =
  Obs.Counter.incr t.m.m_reclamations;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"chunk" "reclaim" [ ("extent", string_of_int extent) ];
  if t.open_ext = Some extent then t.open_ext <- None;
  t.reclaiming <- Some extent;
  Fun.protect
    ~finally:(fun () -> t.reclaiming <- None)
    (fun () ->
      let found, outcome = scan t ~extent in
      let proceed =
        match outcome with
        | `Complete -> Ok ()
        | `Aborted ->
          (* Fault #5: reclamation forgets chunks after a transient read IO
             error — the buggy code carries on with a partial scan. *)
          if Faults.enabled Faults.F5_reclaim_forgets_on_read_error then begin
            Faults.record_fired Faults.F5_reclaim_forgets_on_read_error;
            Ok ()
          end
          else Error (Io (Io_sched.Io Disk.Transient))
      in
      let* () = proceed in
      let rec evacuate evac_deps ref_deps = function
        | [] -> Ok (evac_deps, ref_deps)
        | (old_loc, chunk) :: rest -> (
          match classify chunk.Chunk_format.owner old_loc with
          | `Dead ->
            Obs.Counter.incr t.m.m_dropped;
            evacuate evac_deps ref_deps rest
          | `Live ->
            let* new_loc, new_dep =
              put t ~owner:chunk.Chunk_format.owner ~payload:chunk.Chunk_format.payload
            in
            let ref_dep = relocate chunk.Chunk_format.owner ~old_loc ~new_loc ~new_dep in
            Obs.Counter.incr t.m.m_evacuated;
            if Obs.tracing t.obs then
              Obs.emit t.obs ~layer:"chunk" "evacuate"
                [
                  ("from", string_of_int old_loc.Locator.extent);
                  ("to", string_of_int new_loc.Locator.extent);
                ];
            evacuate (new_dep :: evac_deps) (ref_dep :: ref_deps) rest)
      in
      let* evac_deps, ref_deps = evacuate [] [] found in
      (* The reset may be issued only once evacuations and the updated
         references are durable (section 2.1). Fault #7 drops the reference
         half, so a crash after the reset can leave the durable index
         pointing at scrubbed chunks. *)
      let input =
        if Faults.enabled Faults.F7_soft_hard_pointer_mismatch then begin
          Faults.record_fired Faults.F7_soft_hard_pointer_mismatch;
          Dep.all evac_deps
        end
        else Dep.all (index_basis :: (evac_deps @ ref_deps))
      in
      let* reset_dep =
        Result.map_error (fun e -> Io e) (Io_sched.reset t.sched ~extent ~input)
      in
      Cache.note_reset t.cache ~extent;
      Superblock.set_owner t.sb ~extent Superblock.Free ~dep:reset_dep;
      Ok reset_dep)

(* Leaked-extent audit: a data extent carrying bytes that no live reference
   reaches ([in_use]) and that is not the open append target was written,
   became unreachable, and was never reclaimed — its pages are leaked until
   some future reclamation happens to pick it. Reported per extent, to the
   attached page shadow (when any) and the [chunk.leaked_extent] counter. *)
let close t ~in_use =
  let ps = Io_sched.page_size t.sched in
  let leaked =
    List.filter_map
      (fun extent ->
        let soft = Io_sched.soft_ptr t.sched ~extent in
        if soft > 0 && t.open_ext <> Some extent && not (in_use extent) then
          Some (extent, (soft + ps - 1) / ps)
        else None)
      (Superblock.data_extents t.sb)
  in
  List.iter
    (fun (extent, pages) ->
      Obs.Counter.incr t.m.m_leaked;
      (match Disk.shadow (Io_sched.disk t.sched) with
      | Some s -> Sanitize.Page_shadow.report_leak s ~extent ~pages
      | None -> ());
      if Obs.tracing t.obs then
        Obs.emit t.obs ~layer:"chunk" "leaked_extent"
          [ ("extent", string_of_int extent); ("pages", string_of_int pages) ])
    leaked;
  t.open_ext <- None;
  leaked
