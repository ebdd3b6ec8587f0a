(** Unified observability: one metrics registry and one bounded trace ring
    per instrumented instance.

    The paper leans on observability as correctness tooling — coverage
    counters are its remedy for the missed cache-miss bug (section 8.3),
    and every experiment reduces to counting events across layers. This
    module is the one instrument for both; no layer keeps a stats view of
    its own:

    - a {e metrics registry}: named, optionally labelled counters, gauges
      and histograms. Handles are resolved once at component-creation time,
      so the hot-path update is a single mutable-field store. Registries
      are per-instance — two stores in a fleet never collide — and support
      snapshotting and JSONL export.
    - a {e trace ring}: bounded buffer of structured events with monotone
      sequence numbers. Emission is a couple of array stores when enabled
      and one branch when disabled; checkers drain it to attach a causal
      event log to counterexamples.

    Counters registered with [~coverage:true] additionally feed the global
    {!Coverage} table (the blind-spot report of paper section 4.2).

    {b Constructor convention}: every component constructor that accepts a
    registry takes it as [?obs], and [?obs] is the {e first} optional
    argument ([Store.create ?obs], [Rpc.Node.create ?obs ?disks],
    [Fleet.create ?obs], [Io_sched.create ?obs ?seed], ...). Omitting
    [?obs] always means "a fresh per-instance registry (or the parent
    layer's)", never "no metrics". *)

type t

(** {2 Metric handles}

    Handles are cheap mutable cells; resolve them once ({!counter},
    {!gauge}, {!histogram}) and update through them on the hot path.

    {b Thread safety.} Handle {e updates} are safe from any number of
    domains: counters are atomic (increments are never lost), gauges are
    atomic last-writer-wins sets, and a histogram keeps its
    bucket/count/sum triple consistent under a mutex. Registration
    ({!counter}/{!gauge}/{!histogram}) and registry-level operations
    ({!snapshot}, {!reset}, {!merge_into}) are {e not} synchronized —
    resolve every handle before spawning domains (the constructor
    convention already does this) and snapshot after joining them, or
    from a single coordinator. The trace ring ({!emit}) is single-domain
    by design; multi-domain components must use a registry with
    [trace_capacity = 0]. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  (** Per-bucket (inclusive upper bound, count) pairs; the final bucket's
      bound is [infinity]. Counts are not cumulative. *)
  val buckets : t -> (float * int) list
end

(** {2 Registry} *)

(** [create ?scope ?trace_capacity ()] — a fresh registry plus trace ring.
    [scope] names the instance in exports; [trace_capacity] (default 0 =
    tracing disabled) bounds the ring. *)
val create : ?scope:string -> ?trace_capacity:int -> unit -> t

val scope : t -> string

(** [counter ?labels ?coverage t name] resolves (registering on first use)
    the counter [name] with [labels]. With [~coverage:true] every increment
    also feeds the global {!Coverage} counter of the same name. Raises
    [Invalid_argument] if [name]+[labels] is already registered as another
    metric kind.

    Names are dot-separated, layer first ([disk.write], [cache.hit],
    [chunk.put], ...). The [sanitize.*] namespace is reserved for the
    dynamic-analysis detectors: [Sanitize.Page_shadow] reports one
    [sanitize.page.<kind>] counter per report kind plus the
    [sanitize.page.reports] total, and [chunk.leaked_extent] counts
    extents the close-time audit found leaked. *)
val counter : ?labels:(string * string) list -> ?coverage:bool -> t -> string -> Counter.t

val gauge : ?labels:(string * string) list -> t -> string -> Gauge.t

(** [histogram ?labels ?buckets t name] — [buckets] are inclusive upper
    bounds (sorted ascending; an implicit overflow bucket is appended). *)
val histogram :
  ?labels:(string * string) list -> ?buckets:float list -> t -> string -> Histogram.t

(** {2 Snapshots and export} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (float * int) list; count : int; sum : float }

type sample = {
  name : string;
  labels : (string * string) list;
  value : value;
}

(** All registered metrics, sorted by name then labels. *)
val snapshot : t -> sample list

(** [find t ?labels name] — the current value, if registered. *)
val find : ?labels:(string * string) list -> t -> string -> value option

(** [counter_value t ?labels name] — 0 if absent or not a counter. *)
val counter_value : ?labels:(string * string) list -> t -> string -> int

(** Zero every metric and clear the trace ring. Global {!Coverage}
    counters are left alone; reset those with {!Coverage.reset}. *)
val reset : t -> unit

(** [merge_into ~into src] folds [src]'s {e metrics} into [into], the
    aggregation step of a per-domain-registry parallel sweep
    ([lib/par]): counters add, histograms add element-wise (raises
    [Invalid_argument] if two histograms of the same name disagree on
    bucket bounds), gauges adopt [src]'s value — merging registries in
    ascending seed order therefore leaves exactly the value a sequential
    run's last update would, and because every histogram observation in
    this codebase is an integer-valued [float], the float sums stay
    exact, so merged snapshots are byte-identical to sequential ones.
    Raises [Invalid_argument] on a metric registered with different
    kinds in the two registries. Merged counters do {e not} re-feed the
    global {!Coverage} table (the source's increments already did).
    Trace rings are per-instance diagnostics and are not merged. [src]
    is left unchanged. *)
val merge_into : into:t -> t -> unit

(** One metric per line: [name{labels}  value]. *)
val pp_snapshot : Format.formatter -> t -> unit

(** One JSON object per line (JSONL), e.g.
    [{"scope":"store","metric":"cache.hit","labels":{},"type":"counter","value":3}].
    Histograms export their buckets, count and sum. *)
val to_jsonl : t -> string

(** JSON string-content escaping as used by {!to_jsonl}, shared so every
    JSONL surface in the repo (metrics, wire traces) escapes
    identically. Escapes double quotes, backslashes and control
    characters; does not add the surrounding quotes. *)
val json_escape : string -> string

(** Shortest round-trip JSON float encoding as used by {!to_jsonl}:
    integral floats below 1e15 print without an exponent or trailing dot,
    other finite values with the fewest of 15, 16 or 17 significant
    digits that read back equal, and non-finite values as the quoted
    strings ["+inf"], ["-inf"] and ["nan"]. *)
val json_float : float -> string

(** {2 Trace ring} *)

type event = {
  seq : int;  (** monotone within the instance *)
  layer : string;  (** emitting layer, e.g. ["iosched"] *)
  event : string;  (** event name, e.g. ["io_issue"] *)
  attrs : (string * string) list;
}

(** True when events are being recorded. Hot paths with non-trivial
    attribute lists should guard on this before building them. *)
val tracing : t -> bool

(** [set_tracing t on] — pauses/resumes recording (capacity permitting). *)
val set_tracing : t -> bool -> unit

(** [emit t ~layer name attrs] appends an event, overwriting the oldest
    once the ring is full. No-op (one branch) when disabled. *)
val emit : t -> layer:string -> string -> (string * string) list -> unit

(** [recent ?n t] — the last [n] (default: ring capacity) surviving
    events, oldest first. *)
val recent : ?n:int -> t -> event list

(** Total events emitted (monotone; survives ring wraparound). *)
val events_emitted : t -> int

val pp_event : Format.formatter -> event -> unit

(** {2 Global coverage counters}

    The process-wide blind-spot table (paper section 4.2). Instance
    counters registered with [~coverage:true] feed it automatically;
    {!hit} bumps it directly. The table is shared by the whole process:
    reset it at the start of anything that asserts on counts. *)
module Coverage : sig
  val hit : string -> unit
  val count : string -> int

  (** All counters with non-zero values, sorted by name. *)
  val snapshot : unit -> (string * int) list

  val reset : unit -> unit
  val pp_snapshot : Format.formatter -> unit -> unit

  (** [blind_spots ~expected ()] — the subset of [expected] counter names
      never hit: the blind-spot report. *)
  val blind_spots : expected:string list -> unit -> string list
end
