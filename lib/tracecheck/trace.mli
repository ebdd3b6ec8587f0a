(** Wire-trace capture for non-deterministic runs (OmniLink-style: record
    timestamped invocation/response events from the running system, audit
    them offline — see {!Audit}).

    Every checker below this layer replays a deterministic schedule; the
    recorder is the bridge to executions that do not replay — racing
    [Store.Shared] domains, bench runs, chaos campaigns with faults armed.
    [Rpc.Node], [Fleet] and [Store.Shared] accept a shared {!Recorder.t}
    ([?trace], right after [?obs] in their constructors) and emit:

    - an {!event.Invoke} when a request-plane operation begins and a
      matching {!event.Respond} when it completes, so each operation is an
      interval on the recorder's monotone logical clock;
    - {!event.Mark} markers for the control plane (crash/restart, node
      loss, heal, fault arming, repair, flush), which the audit reports
      alongside counterexamples but never judges.

    The log is bounded by a byte budget (satellite: trace capture must
    have a measured, bounded cost): past the budget an invocation is
    dropped {e together with} its response — the surviving log stays
    well-formed — and the drop is counted ([obs.trace_dropped]), which the
    audit turns into a [Truncated] verdict rather than a false rejection.

    Thread safety: timestamps come from a validated atomic clock
    ({!Conc.Domains.Clock}) ticked under the recorder's {!Conc.Rwlock}
    write lock, so entries are strictly ts-ascending and any number of
    domains may record concurrently. The trace lock is a leaf in the
    global lock order: recording callers must not (and do not) hold it
    around any other acquisition, and instrumented components emit
    strictly outside their own lock closures. *)

type op =
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Get of { key : string }
  | Batch of (string * string option) list
      (** per-op [Some v] = put, [None] = delete; request order preserved *)
  | Scan of { lo : string option; hi : string option }
      (** inclusive bounds, [None] = unbounded; paginated callers record
          the {e effective} lower bound (continuation tokens folded in) *)

type outcome =
  | Acked  (** mutation durably acknowledged *)
  | Failed  (** mutation failed — its effect is indeterminate *)
  | Got of string option  (** point read: value, or absence *)
  | Batch_done of bool list  (** per-op acknowledgement flags, request order *)
  | Scanned of { items : (string * string) list; complete : bool }
      (** [complete] = the whole range, not one page of it *)
  | Unavailable  (** read error: no answer, nothing to judge *)

type marker =
  | Crash  (** node power loss; recovery follows *)
  | Restart  (** node back up after a crash *)
  | Destroy  (** node replaced with empty hardware *)
  | Heal  (** operator heal: medium fixed, breaker re-closed *)
  | Fault_armed  (** random disk-fault arming switched on *)
  | Fault_cleared  (** random disk-fault arming switched off *)
  | Extent_failed  (** one extent forced to fail (once or permanently) *)
  | Repair_start
  | Repair_done
  | Flush  (** shared-store staging drain *)

type event =
  | Invoke of { id : int; client : int; op : op }
  | Respond of { id : int; outcome : outcome }
  | Mark of { kind : marker; node : int }  (** [node = -1]: whole fleet *)

type entry = { ts : int; src : string; ev : event }

val marker_name : marker -> string
val pp_op : Format.formatter -> op -> unit
val pp_entry : Format.formatter -> entry -> unit

(** One JSON object, no trailing newline — the JSONL schema documented in
    README "Wire-trace validation". *)
val entry_to_json : entry -> string

(** {2 The recorder} *)

module Recorder : sig
  type t

  (** [create ?obs ?byte_budget ()] — a fresh recorder. Registers the
      [obs.trace_events] / [obs.trace_dropped] counters in [obs] (or a
      private registry). [byte_budget] (default 1 MiB) bounds the
      {e serialized} size of the kept log. *)
  val create : ?obs:Obs.t -> ?byte_budget:int -> unit -> t

  (** [invoke t ~src ?client op] — record the start of an operation and
      return its id (recorded or not; {!respond} of a dropped id is
      dropped silently, keeping the log well-formed). *)
  val invoke : t -> src:string -> ?client:int -> op -> int

  val respond : t -> src:string -> id:int -> outcome -> unit

  (** [bracket r ~src op ~outcome f] runs [f ()] between an {!invoke} of
      [op] and a {!respond} with [outcome] of its result, both on [r];
      with no recorder it only runs [f ()]. An exception from [f]
      propagates with no respond: the caller never heard back. *)
  val bracket : t option -> src:string -> op -> outcome:('a -> outcome) -> (unit -> 'a) -> 'a

  val mark : t -> src:string -> ?node:int -> marker -> unit

  (** The kept log, ts-ascending. *)
  val entries : t -> entry list

  val events_recorded : t -> int

  (** Events refused by the byte budget (invokes, their responses, marks). *)
  val dropped : t -> int

  val bytes_used : t -> int
  val byte_budget : t -> int
  val obs : t -> Obs.t

  (** One JSON object per line, ts-ascending. *)
  val to_jsonl : t -> string
end
