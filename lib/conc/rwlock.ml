(* Writer-preferring reader-writer lock: one protocol (Spec), one Smc model
   checked by exhaustive schedules, one Atomic implementation whose
   single-word CAS transitions are audited against the same Spec and whose
   concurrent histories are checked linearizable. *)

module Spec = struct
  type state = {
    readers : int;
    pending : int;
    writer : bool;
  }

  let initial = { readers = 0; pending = 0; writer = false }
  let invariant s = s.readers >= 0 && s.pending >= 0 && not (s.writer && s.readers > 0)

  type label =
    | Reader_enter
    | Reader_exit
    | Writer_declare
    | Writer_enter
    | Writer_exit

  let labels = [ Reader_enter; Reader_exit; Writer_declare; Writer_enter; Writer_exit ]

  let step s = function
    | Reader_enter ->
      if s.writer || s.pending > 0 then None else Some { s with readers = s.readers + 1 }
    | Reader_exit -> if s.readers = 0 then None else Some { s with readers = s.readers - 1 }
    | Writer_declare -> Some { s with pending = s.pending + 1 }
    | Writer_enter ->
      if s.writer || s.readers > 0 || s.pending = 0 then None
      else Some { readers = 0; pending = s.pending - 1; writer = true }
    | Writer_exit -> if s.writer then Some { s with writer = false } else None

  let classify ~old_s ~new_s = List.find_opt (fun l -> step old_s l = Some new_s) labels
end

(* {2 The real lock}

   The whole state lives in one word so every transition is a single
   compare-and-set: readers in bits 0-19, pending writers in bits 20-39,
   the writer flag in bit 40. Blocking is a bounded cpu_relax spin that
   falls back to a microsleep: acquisitions here protect short critical
   sections (memtable staging, cache probes), so the lock usually frees
   within the spin phase — but when domains outnumber cores the holder
   may need this very core, and cpu_relax alone would burn the blocked
   acquirer's whole scheduler quantum. The sleep yields the timeslice. *)

let reader_one = 1
let pending_one = 1 lsl 20
let writer_bit = 1 lsl 40
let count_mask = 0xF_FFFF
let readers_of s = s land count_mask
let pending_of s = (s lsr 20) land count_mask
let writer_of s = s land writer_bit <> 0

let unpack s = { Spec.readers = readers_of s; pending = pending_of s; writer = writer_of s }

type t = {
  cell : int Atomic.t;
  trace_old : int array;
  trace_new : int array;
  trace_next : int Atomic.t;  (** transitions taken; slot = claim via fetch-and-add *)
}

let create ?(trace_capacity = 0) () =
  let cap = max 0 trace_capacity in
  {
    cell = Atomic.make 0;
    trace_old = Array.make cap 0;
    trace_new = Array.make cap 0;
    trace_next = Atomic.make 0;
  }

let record t ~old_s ~new_s =
  let i = Atomic.fetch_and_add t.trace_next 1 in
  if i < Array.length t.trace_old then begin
    t.trace_old.(i) <- old_s;
    t.trace_new.(i) <- new_s
  end

let state t = unpack (Atomic.get t.cell)

(* Spin briefly, then give up the timeslice. *)
let backoff spins = if spins < 512 then Domain.cpu_relax () else Unix.sleepf 1e-6

let acquire_read t =
  let rec go spins =
    let s = Atomic.get t.cell in
    if writer_of s || pending_of s > 0 then begin
      (* Writer preference: a pending writer bars new readers. *)
      backoff spins;
      go (spins + 1)
    end
    else if Atomic.compare_and_set t.cell s (s + reader_one) then
      record t ~old_s:s ~new_s:(s + reader_one)
    else go spins
  in
  go 0

let rec release_read t =
  let s = Atomic.get t.cell in
  if readers_of s = 0 then invalid_arg "Rwlock.release_read: no reader holds the lock";
  if Atomic.compare_and_set t.cell s (s - reader_one) then
    record t ~old_s:s ~new_s:(s - reader_one)
  else release_read t

let rec declare t =
  let s = Atomic.get t.cell in
  if Atomic.compare_and_set t.cell s (s + pending_one) then
    record t ~old_s:s ~new_s:(s + pending_one)
  else declare t

let enter t =
  let rec go spins =
    let s = Atomic.get t.cell in
    if writer_of s || readers_of s > 0 then begin
      backoff spins;
      go (spins + 1)
    end
    else begin
      let s' = s - pending_one + writer_bit in
      if Atomic.compare_and_set t.cell s s' then record t ~old_s:s ~new_s:s' else go spins
    end
  in
  go 0

let acquire_write t =
  declare t;
  enter t

let rec release_write t =
  let s = Atomic.get t.cell in
  if not (writer_of s) then invalid_arg "Rwlock.release_write: no writer holds the lock";
  if Atomic.compare_and_set t.cell s (s - writer_bit) then
    record t ~old_s:s ~new_s:(s - writer_bit)
  else release_write t

let with_read t f =
  acquire_read t;
  Fun.protect ~finally:(fun () -> release_read t) f

let with_write t f =
  acquire_write t;
  Fun.protect ~finally:(fun () -> release_write t) f

module Trace = struct
  type violation = {
    index : int;
    old_s : Spec.state;
    new_s : Spec.state;
  }

  let pp_state fmt (s : Spec.state) =
    Format.fprintf fmt "{readers=%d pending=%d writer=%b}" s.readers s.pending s.writer

  let pp_violation fmt v =
    Format.fprintf fmt "transition %d: %a -> %a matches no Spec label" v.index pp_state v.old_s
      pp_state v.new_s

  let transitions t = Atomic.get t.trace_next

  let validate t =
    let checked = min (Atomic.get t.trace_next) (Array.length t.trace_old) in
    let violations = ref [] in
    for i = checked - 1 downto 0 do
      let old_s = unpack t.trace_old.(i) and new_s = unpack t.trace_new.(i) in
      let legal =
        Spec.invariant old_s && Spec.invariant new_s
        && Spec.classify ~old_s ~new_s <> None
      in
      if not legal then violations := { index = i; old_s; new_s } :: !violations
    done;
    (checked, !violations)
end

(* {2 The Smc model} *)

module Model = struct
  type t = {
    m : Smc.Mutex.t;
    readers : int Smc.Cell.t;
    pending : int Smc.Cell.t;
  }

  let create ?name () =
    { m = Smc.Mutex.create ?name (); readers = Smc.Cell.make 0; pending = Smc.Cell.make 0 }

  (* Reader admission: wait out pending writers (preference), then hold the
     mutex just long enough to bump the reader count. The reader's critical
     section runs without the mutex; writers are excluded by the count. *)
  let acquire_read t =
    Smc.wait_until (fun () -> Smc.Cell.peek t.pending = 0);
    Smc.Mutex.lock t.m;
    ignore (Smc.Cell.update t.readers (fun r -> r + 1));
    Smc.Mutex.unlock t.m

  let release_read t = ignore (Smc.Cell.update t.readers (fun r -> r - 1))

  (* [declare_write] then [complete_write] = [acquire_write], split so the
     writer-preference harness below can act between the two. *)
  let declare_write t = ignore (Smc.Cell.update t.pending (fun p -> p + 1))

  (* The writer holds the mutex for its whole critical section: no reader
     can be admitted, no other writer can enter, and writer-held nesting
     shows up as edges in the lock-order graph. *)
  let complete_write t =
    Smc.Mutex.lock t.m;
    ignore (Smc.Cell.update t.pending (fun p -> p - 1));
    Smc.wait_until (fun () -> Smc.Cell.peek t.readers = 0)

  let acquire_write t =
    declare_write t;
    complete_write t

  let release_write t = Smc.Mutex.unlock t.m

  let with_read t f =
    acquire_read t;
    Fun.protect ~finally:(fun () -> release_read t) f

  let with_write t f =
    acquire_write t;
    Fun.protect ~finally:(fun () -> release_write t) f
end

(* {2 Validation entry points} *)

module Check = struct
  type model_report = {
    name : string;
    property : string;
    outcome : Smc.outcome;
    require_exhaustive : bool;
  }

  let pp_model_report fmt r =
    Format.fprintf fmt "%-12s %s: %a" r.name r.property Smc.pp_outcome r.outcome

  (* Mutual exclusion, writer/writer: two locked increments through plain
     accesses. Overlap loses an update (caught logically) and races the
     plain cells (caught by FastTrack). *)
  let h_excl_writers () =
    let l = Model.create () in
    let data = Smc.Cell.make 0 in
    let writer () =
      Model.with_write l (fun () ->
          let v = Smc.Cell.get data in
          Smc.Cell.set data (v + 1))
    in
    Smc.join [ writer; writer ];
    if Smc.Cell.peek data <> 2 then failwith "lost update: writers overlapped"

  (* Mutual exclusion, writer/reader: the reader must never observe the
     writer's half-done state. *)
  let h_excl_writer_reader () =
    let l = Model.create () in
    let data = Smc.Cell.make 0 in
    let writer () =
      Model.with_write l (fun () ->
          Smc.Cell.set data 1;
          Smc.Cell.set data 2)
    in
    let reader () =
      let v = Model.with_read l (fun () -> Smc.Cell.get data) in
      if v = 1 then failwith "reader observed a half-done write"
    in
    Smc.spawn writer;
    Smc.spawn reader

  (* Writer preference: a reader whose acquisition starts after the writer
     declared intent must observe the writer's effect — on every schedule.
     [declared] is set after [declare_write], so once the reader sees it
     the pending count (or the held mutex) already bars the reader. *)
  let h_writer_preference () =
    let l = Model.create () in
    let x = Smc.Cell.make 0 in
    let declared = Smc.Cell.make false in
    let writer () =
      Model.declare_write l;
      Smc.Cell.set declared true;
      Model.complete_write l;
      Smc.Cell.set x 1;
      Model.release_write l
    in
    let reader () =
      Smc.wait_until (fun () -> Smc.Cell.peek declared);
      Model.acquire_read l;
      let v = Smc.Cell.get x in
      Model.release_read l;
      if v <> 1 then failwith "writer preference violated: reader overtook a pending writer"
    in
    Smc.spawn writer;
    Smc.spawn reader

  (* No lost wakeups: balanced acquire/release must terminate on every
     schedule; a waiter never woken surfaces as a Deadlock violation. *)
  let wakeup_body ~writers ~readers () =
    let l = Model.create () in
    let writer () =
      Model.acquire_write l;
      Model.release_write l
    in
    let reader () =
      Model.acquire_read l;
      Smc.yield ();
      Model.release_read l
    in
    Smc.join (List.init writers (fun _ -> writer) @ List.init readers (fun _ -> reader))

  let model ?(budget = 1_500_000) () =
    let sanitize = Sanitize.default in
    let mk name property strategy require_exhaustive body =
      { name; property; outcome = Smc.explore ~sanitize strategy body; require_exhaustive }
    in
    let dfs = Smc.Dfs { max_schedules = budget } in
    [
      mk "excl/ww" "writers mutually exclude (no lost update)" dfs true h_excl_writers;
      mk "excl/wr" "reader never sees a half-done write" dfs true h_excl_writer_reader;
      mk "pref/wr" "pending writer bars later readers" dfs true h_writer_preference;
      mk "wakeup/wr" "1 writer + 1 reader always terminate" dfs true (wakeup_body ~writers:1 ~readers:1);
      mk "wakeup/2w2r" "2 writers + 2 readers always terminate (sampled)"
        (Smc.Pct { seed = 7; schedules = 4_000; depth = 3 })
        false
        (wakeup_body ~writers:2 ~readers:2);
    ]

  let model_ok reports =
    (* The wakeup harnesses have no plain accesses (pure lock traffic), so
       access coverage is asserted over the suite, not per harness. *)
    List.exists (fun r -> r.outcome.Smc.sanitize_accesses > 0) reports
    && List.for_all
         (fun r ->
           r.outcome.Smc.violation = None
           && r.outcome.Smc.lock_cycles = []
           && ((not r.require_exhaustive) || r.outcome.Smc.exhausted))
         reports

  type impl_report = {
    transitions : int;
    trace_checked : int;
    trace_violations : Trace.violation list;
    history_len : int;
    linearizable : bool;
  }

  let pp_impl_report fmt r =
    Format.fprintf fmt
      "%d transitions (%d audited, %d illegal); %d-event register history %s" r.transitions
      r.trace_checked
      (List.length r.trace_violations)
      r.history_len
      (if r.linearizable then "linearizable" else "NOT LINEARIZABLE");
    List.iter (fun v -> Format.fprintf fmt "@.  %a" Trace.pp_violation v) r.trace_violations

  (* A register event: a write of the value, or a read that saw it. *)
  type reg_act = Write of int | Read of int

  let reg_step s = function Write v -> Some v | Read v -> if v = s then Some s else None

  (* Real domains hammer one lock-protected register. The register is a
     plain ref on purpose: the lock is the only thing making this
     well-defined, which is exactly the claim under test. *)
  let impl ?(domains = 3) ?(ops_per_domain = 4) ?(seed = 0) () =
    let domains = max 1 domains in
    let lock = create ~trace_capacity:((8 * domains * ops_per_domain) + 64) () in
    let reg = ref 0 in
    let clock = Atomic.make 0 in
    let timed f =
      let invoked = Atomic.fetch_and_add clock 1 in
      let act = f () in
      let returned = Atomic.fetch_and_add clock 1 in
      { Lincheck.invoked; returned; act }
    in
    let run d =
      let rng = Util.Rng.of_int (seed + (31 * d)) in
      List.init ops_per_domain (fun i ->
          if Util.Rng.bool rng then begin
            let v = ((d + 1) * 1000) + i in
            timed (fun () ->
                with_write lock (fun () -> reg := v);
                Write v)
          end
          else timed (fun () -> Read (with_read lock (fun () -> !reg))))
    in
    let helpers =
      Array.init (domains - 1) (fun d -> Domain.spawn (fun () -> run (d + 1)))
    in
    let history = Array.fold_left (fun acc dom -> acc @ Domain.join dom) (run 0) helpers in
    let verdict, _ = Lincheck.search ~init:0 ~step:reg_step history in
    let trace_checked, trace_violations = Trace.validate lock in
    {
      transitions = Trace.transitions lock;
      trace_checked;
      trace_violations;
      history_len = List.length history;
      linearizable = verdict = Lincheck.Linearizable;
    }

  let impl_ok r =
    r.trace_violations = [] && r.linearizable && r.transitions > 0 && r.trace_checked > 0
end
