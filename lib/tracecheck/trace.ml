type op =
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Get of { key : string }
  | Batch of (string * string option) list
  | Scan of { lo : string option; hi : string option }

type outcome =
  | Acked
  | Failed
  | Got of string option
  | Batch_done of bool list
  | Scanned of { items : (string * string) list; complete : bool }
  | Unavailable

type marker =
  | Crash
  | Restart
  | Destroy
  | Heal
  | Fault_armed
  | Fault_cleared
  | Extent_failed
  | Repair_start
  | Repair_done
  | Flush

type event =
  | Invoke of { id : int; client : int; op : op }
  | Respond of { id : int; outcome : outcome }
  | Mark of { kind : marker; node : int }

type entry = { ts : int; src : string; ev : event }

let marker_name = function
  | Crash -> "crash"
  | Restart -> "restart"
  | Destroy -> "destroy"
  | Heal -> "heal"
  | Fault_armed -> "fault-armed"
  | Fault_cleared -> "fault-cleared"
  | Extent_failed -> "extent-failed"
  | Repair_start -> "repair-start"
  | Repair_done -> "repair-done"
  | Flush -> "flush"

let pp_bound fmt = function
  | None -> Format.pp_print_string fmt "-"
  | Some k -> Format.pp_print_string fmt k

let pp_op fmt = function
  | Put { key; value } -> Format.fprintf fmt "put %s=%S" key value
  | Delete { key } -> Format.fprintf fmt "delete %s" key
  | Get { key } -> Format.fprintf fmt "get %s" key
  | Batch ops ->
    Format.fprintf fmt "batch [%s]"
      (String.concat "; "
         (List.map
            (function
              | k, Some v -> Printf.sprintf "%s=%S" k v
              | k, None -> Printf.sprintf "-%s" k)
            ops))
  | Scan { lo; hi } -> Format.fprintf fmt "scan [%a, %a]" pp_bound lo pp_bound hi

let pp_outcome fmt = function
  | Acked -> Format.pp_print_string fmt "acked"
  | Failed -> Format.pp_print_string fmt "failed"
  | Got None -> Format.pp_print_string fmt "got none"
  | Got (Some v) -> Format.fprintf fmt "got %S" v
  | Batch_done flags ->
    Format.fprintf fmt "batch-done [%s]"
      (String.concat "" (List.map (fun b -> if b then "+" else "-") flags))
  | Scanned { items; complete } ->
    Format.fprintf fmt "scanned %d item(s)%s" (List.length items)
      (if complete then "" else " (partial)")
  | Unavailable -> Format.pp_print_string fmt "unavailable"

let pp_entry fmt e =
  match e.ev with
  | Invoke { id; client; op } ->
    Format.fprintf fmt "%6d %-8s invoke  #%d c%d %a" e.ts e.src id client pp_op op
  | Respond { id; outcome } ->
    Format.fprintf fmt "%6d %-8s respond #%d %a" e.ts e.src id pp_outcome outcome
  | Mark { kind; node } ->
    if node < 0 then Format.fprintf fmt "%6d %-8s mark    %s" e.ts e.src (marker_name kind)
    else Format.fprintf fmt "%6d %-8s mark    %s node %d" e.ts e.src (marker_name kind) node

(* {2 JSON encoding}

   One object per entry; the schema is documented in README "Wire-trace
   validation". String escaping is shared with the Obs JSONL export so
   every JSONL surface in the repo escapes identically. *)

let jstr s = Printf.sprintf "\"%s\"" (Obs.json_escape s)

let jopt = function None -> "null" | Some s -> jstr s

let op_to_json = function
  | Put { key; value } -> Printf.sprintf "\"op\":\"put\",\"key\":%s,\"value\":%s" (jstr key) (jstr value)
  | Delete { key } -> Printf.sprintf "\"op\":\"delete\",\"key\":%s" (jstr key)
  | Get { key } -> Printf.sprintf "\"op\":\"get\",\"key\":%s" (jstr key)
  | Batch ops ->
    Printf.sprintf "\"op\":\"batch\",\"ops\":[%s]"
      (String.concat ","
         (List.map
            (function
              | k, Some v -> Printf.sprintf "{\"key\":%s,\"value\":%s}" (jstr k) (jstr v)
              | k, None -> Printf.sprintf "{\"key\":%s,\"delete\":true}" (jstr k))
            ops))
  | Scan { lo; hi } -> Printf.sprintf "\"op\":\"scan\",\"lo\":%s,\"hi\":%s" (jopt lo) (jopt hi)

let outcome_to_json = function
  | Acked -> "\"outcome\":\"acked\""
  | Failed -> "\"outcome\":\"failed\""
  | Got v -> Printf.sprintf "\"outcome\":\"got\",\"value\":%s" (jopt v)
  | Batch_done flags ->
    Printf.sprintf "\"outcome\":\"batch\",\"acked\":[%s]"
      (String.concat "," (List.map string_of_bool flags))
  | Scanned { items; complete } ->
    Printf.sprintf "\"outcome\":\"scanned\",\"complete\":%b,\"items\":[%s]" complete
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "{\"key\":%s,\"value\":%s}" (jstr k) (jstr v))
            items))
  | Unavailable -> "\"outcome\":\"unavailable\""

(* One JSON object, no trailing newline — the JSONL schema documented in
   README "Wire-trace validation". *)
let entry_to_json e =
  let body =
    match e.ev with
    | Invoke { id; client; op } ->
      Printf.sprintf "\"kind\":\"invoke\",\"id\":%d,\"client\":%d,%s" id client (op_to_json op)
    | Respond { id; outcome } ->
      Printf.sprintf "\"kind\":\"respond\",\"id\":%d,%s" id (outcome_to_json outcome)
    | Mark { kind; node } ->
      Printf.sprintf "\"kind\":\"mark\",\"marker\":\"%s\",\"node\":%d" (marker_name kind) node
  in
  Printf.sprintf "{\"ts\":%d,\"src\":%s,%s}" e.ts (jstr e.src) body

(* {2 The recorder} *)

module Recorder = struct
  type t = {
    clock : Conc.Domains.Clock.t;  (** logical timestamps, ticked under the lock *)
    next_id : Conc.Domains.Clock.t;  (** operation ids, claimed before the lock *)
    trace_lock : Conc.Rwlock.t;
    mutable log : entry list;  (** newest first; strictly ts-descending *)
    mutable bytes : int;
    budget : int;
    mutable dropped : int;
    dropped_ids : (int, unit) Hashtbl.t;
        (** invokes the budget refused: their responds drop too, so the
            surviving log has no response without an invocation *)
    obs : Obs.t;
    m_events : Obs.Counter.t;
    m_dropped : Obs.Counter.t;
  }

  let create ?obs ?(byte_budget = 1024 * 1024) () =
    let obs = match obs with Some o -> o | None -> Obs.create ~scope:"trace" () in
    {
      clock = Conc.Domains.Clock.create ();
      next_id = Conc.Domains.Clock.create ();
      trace_lock = Conc.Rwlock.create ();
      log = [];
      bytes = 0;
      budget = byte_budget;
      dropped = 0;
      dropped_ids = Hashtbl.create 16;
      obs;
      m_events = Obs.counter obs "obs.trace_events";
      m_dropped = Obs.counter obs "obs.trace_dropped";
    }

  (* Serialized-size estimate, without building the JSON on the hot path:
     a fixed envelope plus the payload strings. Deliberately >= the real
     encoding's payload share, so the budget errs toward dropping. *)
  let cost ev =
    let opt = function None -> 4 | Some s -> String.length s + 12 in
    let base = 64 in
    match ev with
    | Invoke { op; _ } -> (
      base
      +
      match op with
      | Put { key; value } -> String.length key + String.length value + 24
      | Delete { key } | Get { key } -> String.length key + 12
      | Batch ops ->
        List.fold_left (fun acc (k, v) -> acc + String.length k + opt v + 24) 8 ops
      | Scan { lo; hi } -> opt lo + opt hi)
    | Respond { outcome; _ } -> (
      base
      +
      match outcome with
      | Acked | Failed | Unavailable -> 0
      | Got v -> opt v
      | Batch_done flags -> (List.length flags * 6) + 8
      | Scanned { items; _ } ->
        List.fold_left
          (fun acc (k, v) -> acc + String.length k + String.length v + 24)
          16 items)
    | Mark _ -> base

  (* Tick the clock inside the write lock: mutual exclusion makes the log
     strictly ts-ascending by construction, and the entry's timestamp is
     the operation's recording point. *)
  let record t ~src ev =
    let c = cost ev in
    let kept =
      Conc.Rwlock.with_write t.trace_lock (fun () ->
          if t.bytes + c > t.budget then begin
            t.dropped <- t.dropped + 1;
            (match ev with
            | Invoke { id; _ } -> Hashtbl.replace t.dropped_ids id ()
            | Respond _ | Mark _ -> ());
            false
          end
          else begin
            let ts = Conc.Domains.Clock.tick t.clock in
            t.log <- { ts; src; ev } :: t.log;
            t.bytes <- t.bytes + c;
            true
          end)
    in
    if kept then Obs.Counter.incr t.m_events else Obs.Counter.incr t.m_dropped

  let invoke t ~src ?(client = 0) op =
    let id = Conc.Domains.Clock.tick t.next_id in
    record t ~src (Invoke { id; client; op });
    id

  let respond t ~src ~id outcome =
    (* A respond for a dropped invoke is dropped too (already counted on
       the invoke side as one refused operation; count the respond as
       well — both events are missing from the log). *)
    let invoke_dropped =
      Conc.Rwlock.with_read t.trace_lock (fun () -> Hashtbl.mem t.dropped_ids id)
    in
    if invoke_dropped then begin
      Conc.Rwlock.with_write t.trace_lock (fun () -> t.dropped <- t.dropped + 1);
      Obs.Counter.incr t.m_dropped
    end
    else record t ~src (Respond { id; outcome })

  let bracket r ~src op ~outcome f =
    match r with
    | None -> f ()
    | Some t ->
      let id = invoke t ~src op in
      let res = f () in
      respond t ~src ~id (outcome res);
      res

  let mark t ~src ?(node = -1) kind = record t ~src (Mark { kind; node })

  let entries t = Conc.Rwlock.with_read t.trace_lock (fun () -> List.rev t.log)
  let events_recorded t = Conc.Rwlock.with_read t.trace_lock (fun () -> List.length t.log)
  let dropped t = Conc.Rwlock.with_read t.trace_lock (fun () -> t.dropped)
  let bytes_used t = Conc.Rwlock.with_read t.trace_lock (fun () -> t.bytes)
  let byte_budget t = t.budget
  let obs t = t.obs

  let to_jsonl t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string buf (entry_to_json e);
        Buffer.add_char buf '\n')
      (entries t);
    Buffer.contents buf
end
