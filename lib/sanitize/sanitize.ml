module Int_set = Set.Make (Int)

type event =
  | Read of int
  | Write of int
  | Rmw of int
  | Lock_acquire of int
  | Lock_release of int
  | Sem_acquire of int
  | Sem_release of int
  | Barrier

type config = {
  races : bool;
  lock_order : bool;
}

let off = { races = false; lock_order = false }
let default = { races = true; lock_order = true }
let enabled c = c.races || c.lock_order

type race = {
  loc : int;
  tids : int * int;
  access : string;
}

let pp_race fmt r =
  let a, b = r.tids in
  Format.fprintf fmt "%s race on cell #%d between threads %d and %d" r.access r.loc a b

(* {2 Vector clocks} *)

module Vc = struct
  type t = { mutable a : int array }

  let create () = { a = [||] }

  let ensure t i =
    if i >= Array.length t.a then begin
      let b = Array.make (max (i + 1) ((2 * Array.length t.a) + 4)) 0 in
      Array.blit t.a 0 b 0 (Array.length t.a);
      t.a <- b
    end

  let get t i = if i < Array.length t.a then t.a.(i) else 0

  let set t i v =
    ensure t i;
    t.a.(i) <- v

  let incr t i = set t i (get t i + 1)
  let join dst src = Array.iteri (fun i v -> if v > get dst i then set dst i v) src.a

  let copy src =
    let t = create () in
    join t src;
    t

  let clear t = Array.fill t.a 0 (Array.length t.a) 0

  (* [find_gt t other] — smallest index where t exceeds other, if any. *)
  let find_gt t other =
    let n = Array.length t.a in
    let rec go i = if i >= n then None else if t.a.(i) > get other i then Some i else go (i + 1) in
    go 0
end

(* {2 Lock-order analysis} *)

module Lock_order = struct
  type t = { edges : (int * int, unit) Hashtbl.t }

  let create () = { edges = Hashtbl.create 16 }

  let add_edge t ~held ~acquired =
    if held <> acquired && not (Hashtbl.mem t.edges (held, acquired)) then
      Hashtbl.replace t.edges (held, acquired) ()

  let edge_count t = Hashtbl.length t.edges

  let edges t = List.sort compare (List.of_seq (Seq.map fst (Hashtbl.to_seq t.edges)))

  (* Tarjan SCC over the acquisition graph; every component with two or
     more locks (or a self-edge) is a potential-deadlock cycle, whether or
     not any explored schedule actually deadlocked. *)
  let cycles t =
    let adj : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let nodes = ref Int_set.empty in
    Hashtbl.iter
      (fun (a, b) () ->
        nodes := Int_set.add a (Int_set.add b !nodes);
        Hashtbl.replace adj a (b :: (Option.value ~default:[] (Hashtbl.find_opt adj a))))
      t.edges;
    let index = Hashtbl.create 16 in
    let lowlink = Hashtbl.create 16 in
    let on_stack = Hashtbl.create 16 in
    let stack = ref [] in
    let next = ref 0 in
    let sccs = ref [] in
    let rec strongconnect v =
      Hashtbl.replace index v !next;
      Hashtbl.replace lowlink v !next;
      incr next;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ();
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (Option.value ~default:[] (Hashtbl.find_opt adj v));
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        in
        let comp = pop [] in
        let self_loop l = Hashtbl.mem t.edges (l, l) in
        (match comp with
        | [ l ] when not (self_loop l) -> ()
        | _ -> sccs := List.sort compare comp :: !sccs)
      end
    in
    Int_set.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) !nodes;
    List.sort compare !sccs

  let pp_cycle fmt locks =
    Format.fprintf fmt "locks {%s}" (String.concat "," (List.map string_of_int locks))
end

(* {2 The per-schedule monitor} *)

module Monitor = struct
  type loc_state = {
    (* FastTrack-style: last-write epoch plus a read vector clock. *)
    mutable w_tid : int;
    mutable w_clk : int;
    reads : Vc.t;
  }

  type t = {
    races : bool;
    graph : Lock_order.t option;
    threads : (int, Vc.t) Hashtbl.t;
    locks : (int, Vc.t) Hashtbl.t;
    sems : (int, Vc.t) Hashtbl.t;
    cells : (int, Vc.t) Hashtbl.t;  (** sync clocks of atomic RMW cells *)
    locations : (int, loc_state) Hashtbl.t;
    held : (int, Int_set.t ref) Hashtbl.t;  (** per-thread held mutexes *)
    mutable race : race option;
    mutable accesses : int;
    mutable syncs : int;
  }

  let create ?lock_order ~races () =
    {
      races;
      graph = lock_order;
      threads = Hashtbl.create 8;
      locks = Hashtbl.create 8;
      sems = Hashtbl.create 4;
      cells = Hashtbl.create 16;
      locations = Hashtbl.create 16;
      held = Hashtbl.create 8;
      race = None;
      accesses = 0;
      syncs = 0;
    }

  let race t = t.race
  let access_count t = t.accesses
  let sync_count t = t.syncs

  let clock_of t tid =
    match Hashtbl.find_opt t.threads tid with
    | Some c -> c
    | None ->
      let c = Vc.create () in
      Vc.set c tid 1;
      Hashtbl.replace t.threads tid c;
      c

  let sync_of tbl id =
    match Hashtbl.find_opt tbl id with
    | Some c -> c
    | None ->
      let c = Vc.create () in
      Hashtbl.replace tbl id c;
      c

  let loc_of t loc =
    match Hashtbl.find_opt t.locations loc with
    | Some s -> s
    | None ->
      let s = { w_tid = -1; w_clk = 0; reads = Vc.create () } in
      Hashtbl.replace t.locations loc s;
      s

  let held_of t tid =
    match Hashtbl.find_opt t.held tid with
    | Some s -> s
    | None ->
      let s = ref Int_set.empty in
      Hashtbl.replace t.held tid s;
      s

  let report t loc ~first ~second access =
    if t.race = None then t.race <- Some { loc; tids = (first, second); access }

  let on_spawn t ~parent ~child =
    if t.races then begin
      let pc = clock_of t parent in
      let cc = Vc.copy pc in
      Vc.incr cc child;
      Hashtbl.replace t.threads child cc;
      Vc.incr pc parent
    end

  (* A thread waking from [block] has observed its predicate become true;
     the writer that made it true is unknown, so join every clock. This
    under-approximates races after wait_until-style barriers but never
    invents ordering for threads that really ran concurrently before the
    block. *)
  let on_wake t ~tid =
    if t.races then begin
      let c = clock_of t tid in
      Hashtbl.iter (fun other oc -> if other <> tid then Vc.join c oc) t.threads
    end

  let vc_read t tid loc =
    let c = clock_of t tid in
    let st = loc_of t loc in
    if st.w_clk > 0 && st.w_tid <> tid && st.w_clk > Vc.get c st.w_tid then
      report t loc ~first:st.w_tid ~second:tid "write/read";
    Vc.set st.reads tid (Vc.get c tid)

  let vc_write t tid loc =
    let c = clock_of t tid in
    let st = loc_of t loc in
    if st.w_clk > 0 && st.w_tid <> tid && st.w_clk > Vc.get c st.w_tid then
      report t loc ~first:st.w_tid ~second:tid "write/write"
    else begin
      match Vc.find_gt st.reads c with
      | Some u when u <> tid -> report t loc ~first:u ~second:tid "read/write"
      | _ -> ()
    end;
    st.w_tid <- tid;
    st.w_clk <- Vc.get c tid;
    Vc.clear st.reads;
    Vc.set st.reads tid (Vc.get c tid)

  let on_event t ~tid ev =
    (* Coverage evidence for "zero findings" gates: how many plain
       accesses the detector actually checked, and how many sync events it
       consumed, whether or not races are tracked. *)
    (match ev with
    | Read _ | Write _ -> t.accesses <- t.accesses + 1
    | Rmw _ | Lock_acquire _ | Lock_release _ | Sem_acquire _ | Sem_release _ | Barrier ->
      t.syncs <- t.syncs + 1);
    (match (t.graph, ev) with
    | Some g, Lock_acquire l ->
      Int_set.iter (fun held -> Lock_order.add_edge g ~held ~acquired:l) !(held_of t tid)
    | _ -> ());
    (match ev with
    | Lock_acquire l ->
      let h = held_of t tid in
      h := Int_set.add l !h
    | Lock_release l ->
      let h = held_of t tid in
      h := Int_set.remove l !h
    | _ -> ());
    if t.races then begin
      let c = clock_of t tid in
      match ev with
      | Read loc -> vc_read t tid loc
      | Write loc -> vc_write t tid loc
      | Rmw loc ->
        (* Atomic read-modify-write: a sync point on the cell, not a plain
           access — acquire the cell's clock, then publish through it. *)
        let a = sync_of t.cells loc in
        Vc.join c a;
        Vc.join a c;
        Vc.incr c tid
      | Lock_acquire l -> Vc.join c (sync_of t.locks l)
      | Lock_release l ->
        let lc = sync_of t.locks l in
        Vc.join lc c;
        Vc.incr c tid
      | Sem_acquire s -> Vc.join c (sync_of t.sems s)
      | Sem_release s ->
        let sc = sync_of t.sems s in
        Vc.join sc c;
        Vc.incr c tid
      | Barrier ->
        (* wait_until returned: the predicate became true, possibly without
           the thread ever blocking (so without an [on_wake]). Same join as
           a wake — sound for monotone predicates. *)
        Hashtbl.iter (fun other oc -> if other <> tid then Vc.join c oc) t.threads
    end
end

(* {2 Page-lifecycle shadow} *)

module Page_shadow = struct
  type page_state = Fresh | Written | Reset_quarantine

  type report_kind =
    | Stale_epoch_read of { expected : int; found : int }
    | Quarantined_read
    | Unwritten_read
    | Double_reset
    | Write_regression of { off : int; expected : int }
    | Extent_leak of { pages : int }

  type report = {
    kind : report_kind;
    extent : int;
    page : int;
  }

  let pp_report fmt r =
    let detail =
      match r.kind with
      | Stale_epoch_read { expected; found } ->
        Printf.sprintf "read-after-reset: locator epoch %d, page recycled at epoch %d" expected
          found
      | Quarantined_read -> "read of reset-quarantined page (data scrubbed)"
      | Unwritten_read -> "read of never-written page"
      | Double_reset -> "reset of an extent with no writes since the last reset"
      | Write_regression { off; expected } ->
        Printf.sprintf "write at %d violates sequential discipline (shadow pointer %d)" off
          expected
      | Extent_leak { pages } ->
        Printf.sprintf "leaked extent: %d written pages unreachable and never reset" pages
    in
    Format.fprintf fmt "extent %d page %d: %s" r.extent r.page detail

  type extent_shadow = {
    st : page_state array;
    birth : int array;  (** epoch current at the page's last write *)
    mutable wptr : int;
    mutable epoch : int;
    mutable resets : int;
    mutable writes_since_reset : int;
  }

  type metrics = {
    m_stale : Obs.Counter.t;
    m_quarantined : Obs.Counter.t;
    m_unwritten : Obs.Counter.t;
    m_double_reset : Obs.Counter.t;
    m_regression : Obs.Counter.t;
    m_leak : Obs.Counter.t;
    m_total : Obs.Counter.t;
  }

  type t = {
    page_size : int;
    extents : extent_shadow array;
    mutable reports : report list;  (** newest first *)
    mutable dropped : int;
    max_reports : int;
    obs : Obs.t option;
    m : metrics option;
  }

  let make_metrics obs =
    {
      m_stale = Obs.counter obs "sanitize.page.stale_epoch_read";
      m_quarantined = Obs.counter obs "sanitize.page.quarantined_read";
      m_unwritten = Obs.counter obs "sanitize.page.unwritten_read";
      m_double_reset = Obs.counter obs "sanitize.page.double_reset";
      m_regression = Obs.counter obs "sanitize.page.write_regression";
      m_leak = Obs.counter obs "sanitize.page.leaked_extent";
      m_total = Obs.counter obs "sanitize.page.reports";
    }

  let create ?obs ~extent_count ~pages_per_extent ~page_size () =
    assert (extent_count > 0 && pages_per_extent > 0 && page_size > 0);
    let mk _ =
      {
        st = Array.make pages_per_extent Fresh;
        birth = Array.make pages_per_extent 0;
        wptr = 0;
        epoch = 0;
        resets = 0;
        writes_since_reset = 0;
      }
    in
    {
      page_size;
      extents = Array.init extent_count mk;
      reports = [];
      dropped = 0;
      max_reports = 256;
      obs;
      m = Option.map make_metrics obs;
    }

  let reports t = List.rev t.reports
  let report_count t = List.length t.reports + t.dropped
  let clear_reports t =
    t.reports <- [];
    t.dropped <- 0

  let state_of t ~extent ~page = t.extents.(extent).st.(page)

  let record t kind ~extent ~page =
    (match t.m with
    | Some m ->
      Obs.Counter.incr m.m_total;
      Obs.Counter.incr
        (match kind with
        | Stale_epoch_read _ -> m.m_stale
        | Quarantined_read -> m.m_quarantined
        | Unwritten_read -> m.m_unwritten
        | Double_reset -> m.m_double_reset
        | Write_regression _ -> m.m_regression
        | Extent_leak _ -> m.m_leak)
    | None -> ());
    (match t.obs with
    | Some obs when Obs.tracing obs ->
      Obs.emit obs ~layer:"sanitize" "page_report"
        [
          ("extent", string_of_int extent);
          ("page", string_of_int page);
          ("what", Format.asprintf "%a" pp_report { kind; extent; page });
        ]
    | _ -> ());
    if List.length t.reports >= t.max_reports then t.dropped <- t.dropped + 1
    else t.reports <- { kind; extent; page } :: t.reports

  let in_range t extent = extent >= 0 && extent < Array.length t.extents

  let on_write t ~extent ~off ~len =
    if in_range t extent && len > 0 then begin
      let e = t.extents.(extent) in
      if off <> e.wptr then
        record t (Write_regression { off; expected = e.wptr }) ~extent ~page:(off / t.page_size);
      let last = Array.length e.st - 1 in
      let p_from = min last (max 0 (off / t.page_size)) in
      let p_to = min last (max 0 ((off + len - 1) / t.page_size)) in
      for p = p_from to p_to do
        e.st.(p) <- Written;
        e.birth.(p) <- e.epoch
      done;
      e.wptr <- max e.wptr (off + len);
      e.writes_since_reset <- e.writes_since_reset + 1;
      match t.obs with
      | Some obs when Obs.tracing obs ->
        Obs.emit obs ~layer:"sanitize" "page_write"
          [ ("extent", string_of_int extent); ("off", string_of_int off); ("len", string_of_int len) ]
      | _ -> ()
    end

  let on_reset t ~extent ~epoch =
    if in_range t extent then begin
      let e = t.extents.(extent) in
      if e.resets > 0 && e.writes_since_reset = 0 then record t Double_reset ~extent ~page:0;
      Array.iteri (fun p s -> if s = Written then e.st.(p) <- Reset_quarantine) e.st;
      e.wptr <- 0;
      e.epoch <- epoch;
      e.resets <- e.resets + 1;
      e.writes_since_reset <- 0;
      match t.obs with
      | Some obs when Obs.tracing obs ->
        Obs.emit obs ~layer:"sanitize" "page_reset"
          [ ("extent", string_of_int extent); ("epoch", string_of_int epoch) ]
      | _ -> ()
    end

  (* Check-only: never mutates shadow state, so it is safe to call on the
     attempt even when the layer below will reject the read. Reports the
     first faulting page. *)
  let on_read ?expect_epoch t ~extent ~off ~len =
    if in_range t extent && len > 0 && off >= 0 then begin
      let e = t.extents.(extent) in
      let last = Array.length e.st - 1 in
      let p_from = min last (off / t.page_size) in
      let p_to = min last ((off + len - 1) / t.page_size) in
      let rec check p =
        if p <= p_to then
          match e.st.(p) with
          | Fresh -> record t Unwritten_read ~extent ~page:p
          | Reset_quarantine -> record t Quarantined_read ~extent ~page:p
          | Written -> (
            match expect_epoch with
            | Some expected when expected <> e.birth.(p) ->
              record t (Stale_epoch_read { expected; found = e.birth.(p) }) ~extent ~page:p
            | _ -> check (p + 1))
      in
      check p_from
    end

  let report_leak t ~extent ~pages =
    if in_range t extent then record t (Extent_leak { pages }) ~extent ~page:0
end
