open Effect
open Effect.Deep

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t
  | Block : (unit -> bool) -> unit Effect.t
  | Tid : int Effect.t
  | Note : Sanitize.event -> unit Effect.t
      (** instrumentation event; handled without a scheduling point, so
          sanitizers never change the schedule tree *)

(* {2 Primitives} *)

let yield () = try perform Yield with Effect.Unhandled _ -> ()
let spawn f = try perform (Spawn f) with Effect.Unhandled _ -> f ()
let thread_id () = try perform Tid with Effect.Unhandled _ -> 0
let block pred = try perform (Block pred) with Effect.Unhandled _ -> assert (pred ())
let note ev = try perform (Note ev) with Effect.Unhandled _ -> ()

let wait_until pred =
  let rec go () =
    yield ();
    if not (pred ()) then begin
      block pred;
      go ()
    end
  in
  go ();
  (* The predicate was observed true: a barrier for the race detector,
     which cannot rely on a wake (the predicate may hold on first check,
     with no block ever issued). Non-scheduling. *)
  note Sanitize.Barrier

(* Location and lock ids, minted in creation order. [run_one] rewinds the
   counters at the start of every schedule, so a deterministic body gives
   every cell and lock the same id on every schedule and on replay. *)
let next_cell_id = ref 0
let next_lock_id = ref 0
let next_sem_id = ref 0

module Cell = struct
  type 'a t = {
    id : int;
    mutable v : 'a;
  }

  let make v =
    let id = !next_cell_id in
    incr next_cell_id;
    { id; v }

  let id t = t.id

  let get t =
    yield ();
    note (Sanitize.Read t.id);
    t.v

  let set t v =
    yield ();
    note (Sanitize.Write t.id);
    t.v <- v

  let update t f =
    yield ();
    note (Sanitize.Rmw t.id);
    let old = t.v in
    t.v <- f old;
    old

  let peek t = t.v
end

(* One counter cell, made here, bumped atomically as each thread's last
   step; the caller blocks until every thread has bumped it. *)
let join fs =
  let finished = Cell.make 0 in
  List.iter
    (fun f ->
      spawn (fun () ->
          f ();
          ignore (Cell.update finished (fun n -> n + 1))))
    fs;
  let n = List.length fs in
  wait_until (fun () -> Cell.peek finished = n)

(* Lock id -> user-facing name, for the lock-graph export. Ids rewind per
   schedule and per exploration, so [Hashtbl.replace] keeps the registry
   consistent: within one exploration a given id always names the same
   lock (deterministic body), and a new exploration overwrites the ids it
   actually mints. Cleared in [sanitize_setup]; outcomes only export names
   for ids that appear in their own edges. *)
let lock_name_registry : (int, string) Hashtbl.t = Hashtbl.create 16

let mint_lock ?name () =
  let id = !next_lock_id in
  incr next_lock_id;
  (match name with Some n -> Hashtbl.replace lock_name_registry id n | None -> ());
  id

(* Only a running exploration handles [Tid]: outside one, no lock id is
   minted. *)
let lock_id ?name () =
  match perform Tid with
  | (_ : int) -> Some (mint_lock ?name ())
  | exception Effect.Unhandled _ -> None

module Mutex = struct
  type t = {
    id : int;
    mutable held_by : int option;
  }

  let create ?name () = { id = mint_lock ?name (); held_by = None }

  let rec lock t =
    yield ();
    match t.held_by with
    | None ->
      t.held_by <- Some (thread_id ());
      note (Sanitize.Lock_acquire t.id)
    | Some owner ->
      if owner = thread_id () then failwith "Smc.Mutex: recursive lock";
      block (fun () -> t.held_by = None);
      lock t

  let unlock t =
    match t.held_by with
    | Some owner when owner = thread_id () ->
      t.held_by <- None;
      note (Sanitize.Lock_release t.id)
    | Some _ -> failwith "Smc.Mutex: unlock by non-owner"
    | None -> failwith "Smc.Mutex: unlock of free mutex"

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Semaphore = struct
  type t = {
    id : int;
    mutable count : int;
  }

  let create count =
    assert (count >= 0);
    let id = !next_sem_id in
    incr next_sem_id;
    { id; count }

  let rec acquire t =
    yield ();
    if t.count > 0 then begin
      t.count <- t.count - 1;
      note (Sanitize.Sem_acquire t.id)
    end
    else begin
      block (fun () -> t.count > 0);
      acquire t
    end

  let release t =
    (* The release is a scheduling point: without the yield, DFS never
       explores interleavings where a waiter wakes between the release and
       the releaser's next access. *)
    yield ();
    t.count <- t.count + 1;
    note (Sanitize.Sem_release t.id)
end

(* {2 The scheduler} *)

type slice_result =
  | Done
  | Yielded of resumption
  | Blocked_on of (unit -> bool) * resumption
  | Spawned of (unit -> unit) * resumption
  | Raised of exn

and resumption = unit -> slice_result

let current_tid = ref 0

(* Where [Note] events land; [run_one] points this at the active monitor.
   The sink runs with [current_tid] set to the emitting thread. *)
let note_sink : (Sanitize.event -> unit) ref = ref (fun _ -> ())

let start_thread (body : unit -> unit) : resumption =
 fun () ->
  match_with body ()
    {
      retc = (fun () -> Done);
      exnc = (fun e -> Raised e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some (fun (k : (a, slice_result) continuation) -> Yielded (fun () -> continue k ()))
          | Block pred -> Some (fun k -> Blocked_on (pred, fun () -> continue k ()))
          | Spawn g -> Some (fun k -> Spawned (g, fun () -> continue k ()))
          | Tid -> Some (fun k -> continue k !current_tid)
          | Note ev ->
            Some
              (fun k ->
                !note_sink ev;
                continue k ())
          | _ -> None);
    }

type strategy =
  | Dfs of { max_schedules : int }
  | Random_walk of { seed : int; schedules : int }
  | Pct of { seed : int; schedules : int; depth : int }

type violation_kind =
  | Assertion of string
  | Exception of string
  | Deadlock of { blocked : int }
  | Race of {
      loc : int;
      tids : int * int;
      access : string;
    }

type violation = {
  kind : violation_kind;
  schedule : int list;
  steps : int;
}

let pp_violation fmt v =
  let kind =
    match v.kind with
    | Assertion msg -> Printf.sprintf "assertion failed: %s" msg
    | Exception msg -> Printf.sprintf "exception: %s" msg
    | Deadlock { blocked } -> Printf.sprintf "deadlock: %d threads blocked" blocked
    | Race { loc; tids = (a, b); access } ->
      Printf.sprintf "data race (%s) on cell #%d between threads %d and %d" access loc a b
  in
  Format.fprintf fmt "%s after %d steps (schedule [%s])" kind v.steps
    (String.concat ";" (List.map string_of_int v.schedule))

type outcome = {
  schedules_run : int;
  total_steps : int;
  exhausted : bool;
  violation : violation option;
  lock_cycles : int list list;
  lock_edges : (int * int) list;
  lock_names : (int * string) list;
  sanitize_accesses : int;
}

let pp_outcome fmt o =
  (match o.violation with
  | None ->
    Format.fprintf fmt "no violation in %d schedules (%d steps%s)" o.schedules_run o.total_steps
      (if o.exhausted then ", exhaustive" else "")
  | Some v -> Format.fprintf fmt "%a [%d schedules explored]" pp_violation v o.schedules_run);
  if o.sanitize_accesses > 0 then
    Format.fprintf fmt "; %d accesses race-checked" o.sanitize_accesses;
  match o.lock_cycles with
  | [] -> ()
  | cycles ->
    Format.fprintf fmt "; %d potential lock-order cycle(s):" (List.length cycles);
    List.iter (fun c -> Format.fprintf fmt " %a" Sanitize.Lock_order.pp_cycle c) cycles

type thread = {
  id : int;
  mutable res : resumption;
}

(* Runnable set: an array kept sorted by thread id — same order the old
   sort-per-step list bookkeeping produced, without the O(n^2) step cost of
   [List.nth]/[List.sort]/[List.filter]. *)
module Runq = struct
  type t = {
    mutable a : thread array;
    mutable n : int;
  }

  let dummy = { id = -1; res = (fun () -> Done) }
  let create () = { a = Array.make 8 dummy; n = 0 }
  let size t = t.n

  let insert t th =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    let i = ref t.n in
    while !i > 0 && t.a.(!i - 1).id > th.id do
      t.a.(!i) <- t.a.(!i - 1);
      decr i
    done;
    t.a.(!i) <- th;
    t.n <- t.n + 1

  let remove t i =
    let th = t.a.(i) in
    Array.blit t.a (i + 1) t.a i (t.n - i - 1);
    t.n <- t.n - 1;
    t.a.(t.n) <- dummy;
    th

  let ids t = List.init t.n (fun i -> t.a.(i).id)
end

exception Too_many_steps

(* Run one schedule. [choose ~step ~runnable:ids] receives the ids of the
   runnable threads (sorted) and returns the position of the one to
   execute. Returns the recorded choices (with arity, for DFS), the step
   count, and the violation if any. [monitor] receives instrumentation
   events in execution order and may flag a race, which becomes the
   schedule's violation. *)
let run_one ?monitor ~choose body =
  next_cell_id := 0;
  next_lock_id := 0;
  next_sem_id := 0;
  let runq = Runq.create () in
  Runq.insert runq { id = 0; res = start_thread body };
  let blocked : (thread * (unit -> bool)) list ref = ref [] in
  let next_id = ref 1 in
  let trace = ref [] in
  let step = ref 0 in
  let violation = ref None in
  let max_steps = 1_000_000 in
  let saved_sink = !note_sink in
  (match monitor with
  | Some m -> note_sink := (fun ev -> Sanitize.Monitor.on_event m ~tid:!current_tid ev)
  | None -> ());
  Fun.protect
    ~finally:(fun () -> note_sink := saved_sink)
    (fun () ->
      (try
         while !violation = None && (Runq.size runq > 0 || !blocked <> []) do
           (* Wake blocked threads whose predicate holds. *)
           let wake, still = List.partition (fun (_, pred) -> pred ()) !blocked in
           blocked := still;
           List.iter
             (fun (th, _) ->
               (match monitor with
               | Some m -> Sanitize.Monitor.on_wake m ~tid:th.id
               | None -> ());
               Runq.insert runq th)
             wake;
           if Runq.size runq = 0 then
             violation := Some (Deadlock { blocked = List.length !blocked })
           else begin
             let n = Runq.size runq in
             let idx = if n = 1 then 0 else choose ~step:!step ~runnable:(Runq.ids runq) in
             let idx = if idx < 0 || idx >= n then 0 else idx in
             trace := (idx, n) :: !trace;
             incr step;
             if !step > max_steps then raise Too_many_steps;
             let t = Runq.remove runq idx in
             current_tid := t.id;
             (match t.res () with
             | Done -> ()
             | Yielded r ->
               t.res <- r;
               Runq.insert runq t
             | Blocked_on (pred, r) ->
               t.res <- r;
               blocked := (t, pred) :: !blocked
             | Spawned (g, r) ->
               t.res <- r;
               let child = { id = !next_id; res = start_thread g } in
               incr next_id;
               (match monitor with
               | Some m -> Sanitize.Monitor.on_spawn m ~parent:t.id ~child:child.id
               | None -> ());
               Runq.insert runq t;
               Runq.insert runq child
             | Raised (Assert_failure (file, line, _)) ->
               violation := Some (Assertion (Printf.sprintf "%s:%d" file line))
             | Raised (Failure msg) -> violation := Some (Assertion msg)
             | Raised e -> violation := Some (Exception (Printexc.to_string e)));
             match monitor with
             | Some m -> (
               match Sanitize.Monitor.race m with
               | Some r when !violation = None ->
                 violation :=
                   Some (Race { loc = r.Sanitize.loc; tids = r.Sanitize.tids; access = r.Sanitize.access })
               | _ -> ())
             | None -> ()
           end
         done
       with Too_many_steps -> violation := Some (Exception "step budget exhausted (livelock?)"));
      (List.rev !trace, !step, !violation))

let lock_names_for edges =
  let ids = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  List.filter_map
    (fun id ->
      Option.map (fun n -> (id, n)) (Hashtbl.find_opt lock_name_registry id))
    ids

(* Per-exploration sanitizer state: a monitor factory (fresh per schedule)
   and a summary of what the monitors saw across every schedule: the
   cycles and edges of the accumulated lock-order graph, and the total of
   plain accesses checked (coverage evidence for "sanitizer clean"
   gates). *)
let sanitize_setup sanitize =
  Hashtbl.reset lock_name_registry;
  match sanitize with
  | Some cfg when Sanitize.enabled cfg ->
    let graph =
      if cfg.Sanitize.lock_order then Some (Sanitize.Lock_order.create ()) else None
    in
    let drained = ref 0 in
    let last = ref None in
    let drain () =
      match !last with
      | Some m ->
        drained := !drained + Sanitize.Monitor.access_count m;
        last := None
      | None -> ()
    in
    let mk () =
      drain ();
      let m = Sanitize.Monitor.create ?lock_order:graph ~races:cfg.Sanitize.races () in
      last := Some m;
      Some m
    in
    let summary () =
      drain ();
      match graph with
      | Some g -> (Sanitize.Lock_order.cycles g, Sanitize.Lock_order.edges g, !drained)
      | None -> ([], [], !drained)
    in
    (mk, summary)
  | _ -> ((fun () -> None), fun () -> ([], [], 0))

(* {2 Strategies: schedule choosers on one loop}

   [explore] runs schedules until the budget, the first violation or the
   strategy's end. A strategy supplies only [chooser ()], built before
   every schedule, and [clean trace steps], which sees every schedule
   that ended without a violation and returns false once nothing is left
   to explore. *)

type scheduler = {
  chooser : unit -> step:int -> runnable:int list -> int;
  clean : (int * int) list -> int -> bool;
}

(* Forces the recorded choices, then runs the lowest thread. *)
let prefix_chooser p ~step ~runnable:(_ : int list) =
  if step < Array.length p then p.(step) else 0

(* Iterative DFS over the schedule tree (the Loom analogue): re-execute
   with a forced prefix, then advance the deepest branch point with
   unexplored siblings; the tree is exhausted when none is left. *)
let dfs () =
  let prefix = ref [||] in
  let rec advance arr i =
    i >= 0
    &&
    let choice, arity = arr.(i) in
    if choice + 1 < arity then begin
      prefix := Array.init (i + 1) (fun j -> if j = i then choice + 1 else fst arr.(j));
      true
    end
    else advance arr (i - 1)
  in
  {
    chooser = (fun () -> prefix_chooser !prefix);
    clean =
      (fun trace _ ->
        let arr = Array.of_list trace in
        advance arr (Array.length arr - 1));
  }

let random_walk ~seed =
  let rng = Util.Rng.of_int seed in
  let choose ~step:_ ~runnable = Util.Rng.int rng (List.length runnable) in
  { chooser = (fun () -> choose); clean = (fun _ _ -> true) }

(* PCT (Burckhardt et al., ASPLOS 2010), the Shuttle analogue: each thread
   gets a random priority on first appearance; the highest-priority
   runnable thread runs; at [depth - 1] randomly chosen steps the running
   thread's priority is demoted below every other, forcing a context
   switch. Few random decisions per run give the O(1/(n k^(d-1)))
   bug-finding guarantee. The change points are drawn over the length of
   the last clean run. *)
let pct ~seed ~depth =
  let rng = Util.Rng.of_int seed in
  let estimated_len = ref 256 in
  let chooser () =
    let priorities : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let lowest = ref 0.0 in
    let change_points : (int, unit) Hashtbl.t = Hashtbl.create 4 in
    for _ = 1 to max 0 (depth - 1) do
      Hashtbl.replace change_points (Util.Rng.int rng (max 1 !estimated_len)) ()
    done;
    let prio_of id =
      match Hashtbl.find_opt priorities id with
      | Some p -> p
      | None ->
        let p = 1.0 +. Util.Rng.float rng 1.0 in
        Hashtbl.replace priorities id p;
        p
    in
    fun ~step ~runnable:ids ->
      let best_pos = ref 0 and best_p = ref neg_infinity in
      List.iteri
        (fun pos id ->
          let p = prio_of id in
          if p > !best_p then begin
            best_p := p;
            best_pos := pos
          end)
        ids;
      if Hashtbl.mem change_points step then begin
        (* demote the thread we are about to run below everything *)
        lowest := !lowest -. 1.0;
        Hashtbl.replace priorities (List.nth ids !best_pos) !lowest
      end;
      !best_pos
  in
  {
    chooser;
    clean =
      (fun _ steps ->
        estimated_len := max 16 steps;
        true);
  }

let explore ?sanitize strategy body =
  let mk_monitor, summary = sanitize_setup sanitize in
  let budget, scheduler =
    match strategy with
    | Dfs { max_schedules } -> (max_schedules, dfs ())
    | Random_walk { seed; schedules } -> (schedules, random_walk ~seed)
    | Pct { seed; schedules; depth } -> (schedules, pct ~seed ~depth)
  in
  (* Returns (schedules run, total steps, exhausted, violation). *)
  let rec loop run total =
    if run >= budget then (run, total, false, None)
    else begin
      let choose = scheduler.chooser () in
      let trace, steps, violation = run_one ?monitor:(mk_monitor ()) ~choose body in
      let run = run + 1 and total = total + steps in
      match violation with
      | Some kind -> (run, total, false, Some { kind; schedule = List.map fst trace; steps })
      | None when scheduler.clean trace steps -> loop run total
      | None -> (run, total, true, None)
    end
  in
  let schedules_run, total_steps, exhausted, violation = loop 0 0 in
  let lock_cycles, lock_edges, sanitize_accesses = summary () in
  {
    schedules_run;
    total_steps;
    exhausted;
    violation;
    lock_cycles;
    lock_edges;
    lock_names = lock_names_for lock_edges;
    sanitize_accesses;
  }

let replay ?sanitize body schedule =
  let mk_monitor, _ = sanitize_setup sanitize in
  let choose = prefix_chooser (Array.of_list schedule) in
  let _, steps, violation = run_one ?monitor:(mk_monitor ()) ~choose body in
  Option.map (fun kind -> { kind; schedule; steps }) violation
