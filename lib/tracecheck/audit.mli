(** Offline linearizability audit of a recorded wire trace.

    The specification is the chaos campaign's per-key model lifted from a
    sequential schedule to interval histories (paper section 3.2 gives the
    reference-model method; OmniLink the trace-validation one):

    - each completed operation is an interval [[invoke, respond]] on the
      recorder's logical clock; operations whose intervals overlap may
      linearize in either order, non-overlapping ones in trace order
      (Wing–Gong);
    - an {e acked} mutation sets the key's committed value and clears the
      indeterminate set; a {e failed} (or still-pending) mutation joins
      the indeterminate set — the client was told "error", not "didn't
      happen", so its value may surface later;
    - a read must observe an admissible value at its linearization point:
      the committed value or an indeterminate one;
    - a scan must observe a {e consistent snapshot}: per key its answer
      (value or absence) must be admissible within the scan's interval,
      and one linearization point inside the interval must satisfy every
      key at once (the cross-key check below rejects a scan that pairs a
      value only writable late with one already overwritten early).

    Per-key histories are searched exhaustively by {!Lincheck}, the one
    linearizability engine in the tree (a budgeted, memoized DFS over the
    minimal-event frontier); the cross-key scan check is a sound interval test: for each judged key the
    audit brackets when its observed value could have been current —
    after every writer of the value was invoked, before any acked
    overwrite certainly completed — and requires the brackets to
    intersect inside the scan's interval. A trace that drops events
    (recorder byte budget) is {!verdict.Truncated}, never falsely
    rejected; a search that exhausts its budget is {!verdict.Gave_up}.

    On rejection the offending per-key subhistory is ddmin-minimized and
    reported as trace entries, so a counterexample from a
    non-deterministic run is still a small, readable artifact.

    Cost: apart from the per-key searches (each bounded by its budget),
    an audit is near-linear in the trace plus what its complete scans
    judge. The key universe is sorted once per audit, and a complete
    scan finds its in-range keys by binary search over it. Each key's
    mutations are listed once, when a scan first judges the key, and
    the brackets of all its values are computed then, each by one binary
    search over the key's acked mutations. So each judged (key, value)
    bracket is computed once, and every scan's judgement of it is one
    table lookup. *)

type verdict =
  | Valid
  | Rejected  (** at least one {!rejection} *)
  | Truncated  (** events were dropped; the audit refuses to certify *)
  | Gave_up  (** a per-key search exhausted its node budget *)

type rejection = {
  r_key : string;  (** [""] for wire-level (well-formedness) findings *)
  r_reason : string;
  r_entries : Trace.entry list;
      (** minimized offending subhistory, ts-ascending *)
}

type report = {
  entries : int;
  ops : int;  (** invocations (completed or pending) *)
  completed : int;
  pending : int;  (** invocations with no response — judged indeterminate *)
  markers : int;
  keys : int;  (** distinct keys judged *)
  max_key_events : int;  (** events in the longest per-key history *)
  scans : int;  (** completed scans judged *)
  dropped : int;
  search_nodes : int;  (** DFS nodes across every per-key search *)
  verdict : verdict;
  rejections : rejection list;
}

val verdict_name : verdict -> string

(** [run ?budget_per_key ?dropped entries] — audit a ts-ascending trace.
    [dropped] (default 0) is the recorder's refused-event count;
    [budget_per_key] (default {!Lincheck.default_budget}, 200,000) bounds
    each per-key search. *)
val run : ?budget_per_key:int -> ?dropped:int -> Trace.entry list -> report

(** [audit recorder] = [run] over {!Trace.Recorder.entries} with the
    recorder's own drop count. *)
val audit : ?budget_per_key:int -> Trace.Recorder.t -> report

(** [Valid] — and nothing less: truncated or given-up audits are not ok. *)
val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
