type error =
  | Io of Disk.io_error
  | Extent_full of { extent : int; wanted : int; available : int }
  | Stuck of { blocked : int }

let pp_error fmt = function
  | Io e -> Disk.pp_io_error fmt e
  | Extent_full { extent; wanted; available } ->
    Format.fprintf fmt "extent %d full: wanted %d bytes, %d available" extent wanted available
  | Stuck { blocked } -> Format.fprintf fmt "scheduler stuck: %d writes blocked" blocked

(* Coarse classification for the retry/health policy of layers above: can
   a retry help (`Transient), is the medium gone until healed (`Permanent),
   is it resource pressure that GC or capacity planning might cure
   (`Resource), or a logic/corruption error no request-plane policy should
   paper over (`Fatal). *)
let error_class = function
  | Io Disk.Transient -> `Transient
  | Io Disk.Permanent -> `Permanent
  | Io (Disk.Out_of_bounds _) -> `Fatal
  | Extent_full _ -> `Resource
  | Stuck _ -> `Fatal

type volatile = {
  image : Bytes.t;
  mutable soft_ptr : int;
  mutable vepoch : int;
  mutable epoch_ceiling : int;
      (** highest epoch ever minted this session; resets continue above it
          so locators of writes lost to a permanent failure can never be
          re-minted for different data *)
  mutable quarantined : bool;
      (** a permanent failure destroyed staged writes here; the extent is
          retired from new appends until a reset gives it a fresh epoch *)
  pending : Dep.write Queue.t;
  mutable blocker : Dep.blocker option;
      (** a leaf that blocked write [blocked_head] when last checked;
          while it still blocks, so does that write *)
  mutable blocked_head : int;  (** a write id; -1 before any check *)
}

type metrics = {
  m_appends : Obs.Counter.t;
  m_resets : Obs.Counter.t;
  m_ios : Obs.Counter.t;
  m_bytes : Obs.Counter.t;
  m_crashes : Obs.Counter.t;
  m_torn : Obs.Counter.t;
  m_pending : Obs.Gauge.t;
  m_batch_submit : Obs.Counter.t;
  m_coalesced : Obs.Counter.t;
  m_coalesce_width : Obs.Histogram.t;
}

let make_metrics obs =
  {
    m_appends = Obs.counter obs "iosched.append";
    m_resets = Obs.counter obs "iosched.reset";
    m_ios = Obs.counter obs "iosched.io_issued";
    m_bytes = Obs.counter obs "iosched.bytes_issued";
    m_crashes = Obs.counter obs "iosched.crash";
    m_torn = Obs.counter ~coverage:true obs "crash.torn_append";
    m_pending = Obs.gauge obs "iosched.pending";
    m_batch_submit = Obs.counter obs "iosched.batch_submit";
    m_coalesced = Obs.counter obs "iosched.coalesced_append";
    m_coalesce_width =
      Obs.histogram ~buckets:[ 2.; 4.; 8.; 16.; 32.; 64. ] obs "iosched.coalesce_width";
  }

module Iset = Set.Make (Int)

type t = {
  disk : Disk.t;
  volatiles : volatile array;
  mutable active : Iset.t;  (** the extents whose queue is non-empty *)
  rng : Util.Rng.t;
  obs : Obs.t;
  m : metrics;
  mutable next_id : int;
  mutable pending_total : int;
}

let extent_size t = Disk.extent_size (Disk.config t.disk)
let page_size t = (Disk.config t.disk).Disk.page_size
let extent_count t = (Disk.config t.disk).Disk.extent_count
let disk t = t.disk
let obs t = t.obs

let create ?obs ?(seed = 0x5EEDL) disk =
  let config = Disk.config disk in
  let size = Disk.extent_size config in
  let mk i =
    {
      image = Bytes.make size '\000';
      soft_ptr = Disk.hard_ptr disk ~extent:i;
      vepoch = Disk.epoch disk ~extent:i;
      epoch_ceiling = Disk.epoch disk ~extent:i;
      quarantined = false;
      pending = Queue.create ();
      blocker = None;
      blocked_head = -1;
    }
  in
  let obs = match obs with Some o -> o | None -> Disk.obs disk in
  let t =
    {
      disk;
      volatiles = Array.init config.Disk.extent_count mk;
      active = Iset.empty;
      rng = Util.Rng.create seed;
      obs;
      m = make_metrics obs;
      next_id = 0;
      pending_total = 0;
    }
  in
  (* Seed the volatile images from whatever is already durable (recovery
     after a crash reuses the same disk). *)
  Array.iteri
    (fun i v ->
      let len = Disk.hard_ptr disk ~extent:i in
      if len > 0 then Bytes.blit_string (Disk.durable_image disk ~extent:i) 0 v.image 0 len)
    t.volatiles;
  t

let volatile t extent =
  if extent < 0 || extent >= Array.length t.volatiles then
    invalid_arg (Printf.sprintf "Io_sched: bad extent %d" extent);
  t.volatiles.(extent)

let soft_ptr t ~extent = (volatile t extent).soft_ptr
let epoch t ~extent = (volatile t extent).vepoch
let quarantined t ~extent = (volatile t extent).quarantined
let capacity_left t ~extent = extent_size t - (volatile t extent).soft_ptr

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let set_pending t n =
  t.pending_total <- n;
  Obs.Gauge.set_int t.m.m_pending n

(* Every change to one extent's queue is followed by this, and dropping
   every queue empties [active] at once, so [active] always holds exactly
   the extents with queued writes. *)
let sync_active t extent v =
  t.active <-
    (if Queue.is_empty v.pending then Iset.remove extent t.active else Iset.add extent t.active)

let enqueue t v w =
  Queue.add w v.pending;
  sync_active t w.Dep.extent v;
  set_pending t (t.pending_total + 1)

let append t ~extent ~data ~input =
  if String.length data = 0 then invalid_arg "Io_sched.append: empty data";
  let v = volatile t extent in
  if v.quarantined then Error (Io Disk.Permanent)
  else begin
  let len = String.length data in
  let available = extent_size t - v.soft_ptr in
  if len > available then Error (Extent_full { extent; wanted = len; available })
  else begin
    let off = v.soft_ptr in
    Bytes.blit_string data 0 v.image off len;
    v.soft_ptr <- off + len;
    let w = Dep.make_write ~id:(fresh_id t) ~extent ~kind:(Append { off; data }) ~input in
    enqueue t v w;
    Obs.Counter.incr t.m.m_appends;
    Ok (Dep.of_write w)
  end
  end

let reset t ~extent ~input =
  let v = volatile t extent in
  Bytes.fill v.image 0 (Bytes.length v.image) '\000';
  v.soft_ptr <- 0;
  v.vepoch <- max v.vepoch v.epoch_ceiling + 1;
  v.epoch_ceiling <- v.vepoch;
  v.quarantined <- false;
  let w = Dep.make_write ~id:(fresh_id t) ~extent ~kind:(Reset { epoch = v.vepoch }) ~input in
  enqueue t v w;
  Obs.Counter.incr t.m.m_resets;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"iosched" "reset"
      [ ("extent", string_of_int extent); ("epoch", string_of_int v.vepoch) ];
  Ok (Dep.of_write w)

let read t ~extent ~off ~len =
  let v = volatile t extent in
  match Disk.consume_fault t.disk ~extent with
  | Error e -> Error (Io e)
  | Ok () ->
    if len < 0 || off < 0 then Error (Io (Disk.Out_of_bounds "negative offset or length"))
    else if off + len > v.soft_ptr then
      Error
        (Io
           (Disk.Out_of_bounds
              (Printf.sprintf "read [%d, %d) beyond soft pointer %d" off (off + len) v.soft_ptr)))
    else Ok (Bytes.sub_string v.image off len)

let resync_extent t extent v =
  Bytes.fill v.image 0 (Bytes.length v.image) '\000';
  let len = Disk.hard_ptr t.disk ~extent in
  if len > 0 then Bytes.blit_string (Disk.durable_image t.disk ~extent) 0 v.image 0 len;
  v.soft_ptr <- len;
  v.vepoch <- Disk.epoch t.disk ~extent;
  v.epoch_ceiling <- max v.epoch_ceiling v.vepoch

(* A permanent failure loses the whole extent queue — later sequential
   writes can never be issued once a predecessor is lost — and the volatile
   state is resynchronized from the durable state: staged-but-lost bytes,
   pointers and reset epochs must not linger, or later reuse of the extent
   would mint locators whose epoch can never exist on disk. *)
let fail_extent t extent v =
  Queue.iter
    (fun w' ->
      Dep.set_status w' Dep.Failed;
      set_pending t (t.pending_total - 1))
    v.pending;
  Queue.clear v.pending;
  sync_active t extent v;
  resync_extent t extent v;
  v.quarantined <- true;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"iosched" "extent_failed" [ ("extent", string_of_int extent) ]

(* Whether [w], the head of [v]'s queue, has a persistent input. A blocked
   head keeps the leaf that blocks it; while that leaf still blocks, the
   answer is no without a walk of the graph (see {!Dep.blocks}). A ready
   head lets go of its leaf (a head issues, or fails its extent, only once
   found ready), and so does dropping every queue, so a leaf that settles
   or binds is kept alive only until its head's next check. *)
let head_ready v (w : Dep.write) =
  match v.blocker with
  | Some b when v.blocked_head = w.Dep.id && Dep.blocks b -> false
  | _ ->
    v.blocker <- Dep.first_blocker w.Dep.input;
    v.blocked_head <- w.Dep.id;
    Option.is_none v.blocker

(* Issue the head write of [v] to the disk. Returns [`Issued], [`Transient]
   (retry later), or [`Blocked] (dependency not yet persistent). *)
let try_issue_head t extent v =
  match Queue.peek_opt v.pending with
  | None -> `Empty
  | Some w ->
    if not (head_ready v w) then `Blocked
    else begin
      let result =
        match w.Dep.kind with
        | Dep.Append { off; data } -> Disk.write t.disk ~extent ~off data
        | Dep.Reset { epoch } -> Disk.reset ~epoch t.disk ~extent
      in
      match result with
      | Ok () ->
        Dep.set_status w Dep.Durable;
        ignore (Queue.pop v.pending);
        sync_active t extent v;
        set_pending t (t.pending_total - 1);
        Obs.Counter.incr t.m.m_ios;
        (match w.Dep.kind with
        | Dep.Append { data; _ } -> Obs.Counter.add t.m.m_bytes (String.length data)
        | Dep.Reset _ -> ());
        if Obs.tracing t.obs then
          Obs.emit t.obs ~layer:"iosched" "io_issue"
            [
              ("extent", string_of_int extent);
              ( "kind",
                match w.Dep.kind with
                | Dep.Append { data; _ } -> Printf.sprintf "append:%d" (String.length data)
                | Dep.Reset _ -> "reset" );
            ];
        `Issued
      | Error Disk.Transient -> `Transient
      | Error Disk.Permanent | Error (Disk.Out_of_bounds _) ->
        (* Out_of_bounds here would be a scheduler logic bug for appends, but
           it also arises when an injected permanent failure earlier broke
           the sequential chain; treat both as failing the queue. *)
        fail_extent t extent v;
        `Failed
    end

(* The maximal ready run of appends at the head of [v]'s queue: each member
   is contiguous with its predecessor (appends stage at the soft pointer, so
   this holds by construction unless a reset intervenes) and its input holds
   once the earlier members of the same run are treated as persistent —
   intra-batch dependencies resolve because the merged IO is atomic. The
   run is a prefix of the queue and queue ids ascend, so a pending write is
   a member so far exactly when it is on this extent with an id from the
   head's up to the candidate's. *)
let ready_run v =
  match Queue.peek_opt v.pending with
  | None -> []
  | Some head ->
    let in_run (w : Dep.write) (w' : Dep.write) =
      w'.Dep.extent = w.Dep.extent && w'.Dep.id >= head.Dep.id && w'.Dep.id < w.Dep.id
    in
    let run = ref [] in
    let next_off = ref (-1) in
    (try
       Queue.iter
         (fun w ->
           match w.Dep.kind with
           | Dep.Reset _ -> raise Exit
           | Dep.Append { off; data } ->
             if !next_off >= 0 && off <> !next_off then raise Exit;
             let ready =
               if w == head then head_ready v w else Dep.persistent_under (in_run w) w.Dep.input
             in
             if not ready then raise Exit;
             run := w :: !run;
             next_off := off + String.length data)
         v.pending
     with Exit -> ());
    List.rev !run

let issue_run t extent v run =
  let first_off =
    match (List.hd run).Dep.kind with
    | Dep.Append { off; _ } -> off
    | Dep.Reset _ -> assert false
  in
  let data =
    String.concat ""
      (List.map
         (fun w ->
           match w.Dep.kind with
           | Dep.Append { data; _ } -> data
           | Dep.Reset _ -> assert false)
         run)
  in
  match Disk.write t.disk ~extent ~off:first_off data with
  | Ok () ->
    List.iter
      (fun w ->
        Dep.set_status w Dep.Durable;
        ignore (Queue.pop v.pending);
        set_pending t (t.pending_total - 1))
      run;
    sync_active t extent v;
    let width = List.length run in
    Obs.Counter.incr t.m.m_ios;
    Obs.Counter.add t.m.m_bytes (String.length data);
    Obs.Counter.add t.m.m_coalesced (width - 1);
    Obs.Histogram.observe t.m.m_coalesce_width (float_of_int width);
    if Obs.tracing t.obs then
      Obs.emit t.obs ~layer:"iosched" "io_issue"
        [
          ("extent", string_of_int extent);
          ("kind", Printf.sprintf "append:%d" (String.length data));
          ("coalesced", string_of_int width);
        ];
    `Issued
  | Error Disk.Transient -> `Transient
  | Error Disk.Permanent | Error (Disk.Out_of_bounds _) ->
    fail_extent t extent v;
    `Failed

(* The write-back loop: passes run until one issues nothing or [max_ios]
   writes are issued. A pass calls [walk] on the extents active at its
   start, which tries [issue] once on each in the order it chooses. A pass
   never fills an empty queue, so the extents it skips have nothing to
   issue. Another pass follows any progress, because an issued write can
   unblock another extent's head (cross-extent dependencies, promises
   bound to superblock records). *)
let passes ~max_ios t ~walk issue =
  let issued = ref 0 in
  let progress = ref true in
  while !progress && !issued < max_ios do
    progress := false;
    walk
      (fun extent ->
        if !issued < max_ios then
          match issue extent t.volatiles.(extent) with
          | `Issued ->
            incr issued;
            progress := true
          | `Failed -> progress := true
          | `Empty | `Blocked | `Transient -> ())
      t.active
  done;
  !issued

(* A fresh uniform shuffle of the active extents per pass: the orderings a
   real write-back thread could pick (the order contract in the
   interface). *)
let pump ?(max_ios = max_int) t =
  let shuffled f active =
    let extents = Array.of_list (Iset.elements active) in
    Util.Rng.shuffle t.rng extents;
    Array.iter f extents
  in
  passes ~max_ios t ~walk:shuffled (try_issue_head t)

(* Ascending extent order (vs [pump]'s shuffle): batch write-back favours
   merge opportunity and locality over schedule exploration. *)
let submit_batch ?(max_ios = max_int) t =
  Obs.Counter.incr t.m.m_batch_submit;
  passes ~max_ios t ~walk:Iset.iter (fun extent v ->
      match ready_run v with
      | [] | [ _ ] -> try_issue_head t extent v
      | run -> issue_run t extent v run)

let pending_count t = t.pending_total

let queue_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  let n = Array.length t.volatiles in
  let queued =
    List.filter (fun e -> not (Queue.is_empty t.volatiles.(e).pending)) (List.init n Fun.id)
  in
  let total = Array.fold_left (fun acc v -> acc + Queue.length v.pending) 0 t.volatiles in
  let rec ascending = function
    | (a : Dep.write) :: (b :: _ as rest) -> a.Dep.id < b.Dep.id && ascending rest
    | [ _ ] | [] -> true
  in
  let rec check extent =
    if extent = n then Ok ()
    else begin
      let v = t.volatiles.(extent) in
      let ws = List.of_seq (Queue.to_seq v.pending) in
      let own (w : Dep.write) =
        w.Dep.extent = extent
        &&
        match w.Dep.status with
        | Dep.Pending -> true
        | Dep.Durable | Dep.Dropped | Dep.Failed -> false
      in
      if not (List.for_all own ws) then
        err "extent %d: queue holds a settled or foreign write" extent
      else if not (ascending ws) then err "extent %d: queue ids do not ascend" extent
      else
        match v.blocker, ws with
        | None, _ -> check (extent + 1)
        | Some _, [] -> err "extent %d: empty queue keeps a cached blocker" extent
        | Some _, w :: _ when v.blocked_head <> w.Dep.id ->
          err "extent %d: cached blocker of w%d, but the head is w%d" extent v.blocked_head
            w.Dep.id
        | Some b, w :: _ when Dep.blocks b && Dep.is_persistent w.Dep.input ->
          err "extent %d: head w%d cached as blocked, but its input is persistent" extent w.Dep.id
        | Some _, _ :: _ -> check (extent + 1)
    end
  in
  let active = Iset.elements t.active in
  if active <> queued then
    err "active set {%s}, extents with queued writes {%s}" (ints active) (ints queued)
  else if total <> t.pending_total then
    err "pending count %d, queues hold %d" t.pending_total total
  else check 0

let pending_writes t =
  let acc = ref [] in
  Array.iter (fun v -> Queue.iter (fun w -> acc := w :: !acc) v.pending) t.volatiles;
  List.sort (fun a b -> compare a.Dep.id b.Dep.id) !acc

let has_pending_reset t ~extent =
  let v = volatile t extent in
  Queue.fold
    (fun acc w -> acc || match w.Dep.kind with Dep.Reset _ -> true | Dep.Append _ -> false)
    false v.pending

let flush t =
  let rec go guard =
    if t.pending_total = 0 then Ok ()
    else if guard = 0 then Error (Stuck { blocked = t.pending_total })
    else begin
      let before = t.pending_total in
      let issued = pump t in
      if issued = 0 && t.pending_total = before then
        (* Nothing moved: either transient failures (retry a bounded number
           of times) or genuinely stuck dependencies. *)
        go (guard - 1)
      else go guard
    end
  in
  go 4

(* A reboot empties every volatile structure that could hold a lost
   locator, so quarantines lift. *)
let reload_volatile t =
  Array.iteri
    (fun extent v ->
      resync_extent t extent v;
      v.quarantined <- false)
    t.volatiles

(* Settle every queued write with [status w], empty the queues and reload
   the volatile images from the durable state: what a restart leaves. *)
let settle_all t status =
  Array.iter
    (fun v ->
      Queue.iter (fun w -> Dep.set_status w (status w)) v.pending;
      Queue.clear v.pending;
      v.blocker <- None)
    t.volatiles;
  t.active <- Iset.empty;
  set_pending t 0;
  reload_volatile t

let discard_volatile t = settle_all t (fun _ -> Dep.Dropped)

(* {2 Crash states} *)

type crash_report = { persisted : int; partial : int; dropped : int }

type decision = Persist | Stop | Tear of int

type crash_state = {
  whole : (int, unit) Hashtbl.t;  (** ids of the writes persisted whole *)
  torn : (int, int) Hashtbl.t;  (** id of a torn append -> bytes that reach the disk *)
}

let persisted state (w : Dep.write) = Hashtbl.mem state.whole w.Dep.id

(* The page boundaries strictly inside append [w], as byte counts from its
   start, last first: where a crash mid-way through a multi-page IO can
   cut it. *)
let page_cuts t (w : Dep.write) =
  match w.Dep.kind with
  | Dep.Reset _ -> []
  | Dep.Append { off; data } ->
    let psize = page_size t in
    let rec go b acc =
      if b >= off + String.length data then acc else go (b + psize) ((b - off) :: acc)
    in
    go (((off / psize) + 1) * psize) []

(* The selection. Dependencies may point at writes queued later (promises
   bind to future superblock records), so it iterates to a fixpoint: each
   pass walks the queue cursor of every extent not yet stopped, in
   ascending extent order, and asks [decide] about the next write once its
   input holds under the writes persisted so far. [decide] is asked at
   most once per write. *)
let select t ~decide =
  let state = { whole = Hashtbl.create 64; torn = Hashtbl.create 4 } in
  let queues =
    Array.of_list
      (List.map
         (fun extent -> Array.of_seq (Queue.to_seq t.volatiles.(extent).pending))
         (Iset.elements t.active))
  in
  let cursor = Array.make (Array.length queues) 0 in
  let stopped = Array.make (Array.length queues) false in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i queue ->
        let eligible = ref true in
        while !eligible && (not stopped.(i)) && cursor.(i) < Array.length queue do
          let w = queue.(cursor.(i)) in
          if not (Dep.persistent_under (persisted state) w.Dep.input) then eligible := false
          else
            match decide w with
            | Persist ->
              Hashtbl.replace state.whole w.Dep.id ();
              cursor.(i) <- cursor.(i) + 1;
              progress := true
            | Tear bytes ->
              Hashtbl.replace state.torn w.Dep.id bytes;
              stopped.(i) <- true
            | Stop -> stopped.(i) <- true
        done)
      queues
  done;
  state

let write_state t state disk =
  let write (w : Dep.write) =
    let extent = w.Dep.extent in
    match w.Dep.kind, Hashtbl.find_opt state.torn w.Dep.id with
    | Dep.Append { off; data }, _ when persisted state w -> Disk.write disk ~extent ~off data
    | Dep.Reset { epoch }, _ when persisted state w -> Disk.reset ~epoch disk ~extent
    | Dep.Append { off; data }, Some bytes -> Disk.write disk ~extent ~off (String.sub data 0 bytes)
    | (Dep.Append _ | Dep.Reset _), _ -> Ok ()
  in
  Disk.with_faults_suspended disk (fun () ->
      Iset.iter
        (fun extent ->
          Queue.iter
            (fun w ->
              match write w with
              | Ok () -> ()
              | Error e -> Format.kasprintf failwith "crash state write: %a" Disk.pp_io_error e)
            t.volatiles.(extent).pending)
        t.active)

let crash t ~rng ~persist_probability ~split_pages =
  Obs.Counter.incr t.m.m_crashes;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~layer:"iosched" "crash" [ ("pending", string_of_int t.pending_total) ];
  let decide (w : Dep.write) =
    if not (Util.Rng.chance rng persist_probability) then Stop
    else
      match w.Dep.kind with
      | Dep.Append _ when split_pages && Util.Rng.chance rng 0.25 -> (
        match page_cuts t w with
        | [] -> Persist
        | cuts ->
          let bytes = Util.Rng.pick_list rng cuts in
          Obs.Counter.incr t.m.m_torn;
          if Obs.tracing t.obs then
            Obs.emit t.obs ~layer:"iosched" "torn_append"
              [ ("extent", string_of_int w.Dep.extent); ("bytes", string_of_int bytes) ];
          Tear bytes)
      | Dep.Append _ | Dep.Reset _ -> Persist
  in
  let state = select t ~decide in
  write_state t state t.disk;
  let persisted_n = Hashtbl.length state.whole and partial = Hashtbl.length state.torn in
  let report = { persisted = persisted_n; partial; dropped = t.pending_total - persisted_n - partial } in
  settle_all t (fun w -> if persisted state w then Dep.Durable else Dep.Dropped);
  report

(* Enumeration walks [select]'s decisions depth first, as [Smc]'s DFS walks
   schedules: a run replays a forced prefix of choices, takes the first
   option at every later decision and records each decision's choice and
   option count; the next run advances the deepest decision with an option
   left. Two runs first differ in the fate of one write (persisted whole,
   extent stopped before it, or torn at one cut), and so differ in their
   states. *)
let crash_states t =
  let options w = Stop :: (List.rev_map (fun cut -> Tear cut) (page_cuts t w) @ [ Persist ]) in
  let rec from prefix () =
    let forced = ref prefix and trail = ref [] in
    let decide w =
      let options = options w in
      let choice =
        match !forced with
        | c :: rest ->
          forced := rest;
          c
        | [] -> 0
      in
      trail := (choice, List.length options) :: !trail;
      List.nth options choice
    in
    let state = select t ~decide in
    let rec advance = function
      | [] -> Seq.Nil
      | (choice, arity) :: shallower when choice + 1 < arity ->
        from (List.rev ((choice + 1) :: List.map fst shallower)) ()
      | _ :: shallower -> advance shallower
    in
    Seq.Cons (state, fun () -> advance !trail)
  in
  from []
