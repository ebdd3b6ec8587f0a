(** Linearizability checking of interval histories against a sequential
    model (paper section 6: "concurrent executions of ShardStore are
    linearizable with respect to the sequential reference models").

    One engine serves every checker in the tree: the offline wire-trace
    audit ([Tracecheck.Audit], one search per key against the
    committed/indeterminate model), the real-domain rwlock cross-check
    ([Conc.Rwlock.Check.impl], a register) and the [Smc]-scheduled
    tests. A history is a list of {!event}s, each an interval on any
    monotone logical clock; the engine searches (Wing–Gong) for a total
    order consistent with real-time precedence that the model accepts,
    event by event.

    The search is a budgeted DFS over the minimal-event frontier,
    memoized on (linearized set, model state) when the history has at
    most 61 events. A search that exhausts its node budget answers
    {!Gave_up} instead of running on. Model states are memo keys, so
    they are compared with polymorphic equality and hashing: keep them
    plain data (no closures), and canonical where possible so equal
    states memoize together. *)

type 'act event = {
  invoked : int;  (** logical time at invocation *)
  returned : int;  (** logical time at response; [max_int] while pending *)
  act : 'act;  (** the operation and what it observed, as the model sees it *)
}

type verdict =
  | Linearizable
  | Rejected  (** no order consistent with real time satisfies the model *)
  | Gave_up  (** the node budget ran out first *)

(** The node budget {!search} uses unless told otherwise: 200,000. *)
val default_budget : int

(** [search ?budget ~init ~step history] — the verdict and the number of
    DFS nodes visited. [step state act] is the sequential model: the
    successor state, or [None] when [act] is inadmissible in [state]
    (an observation the state does not explain). [history] may be in any
    order. *)
val search :
  ?budget:int ->
  init:'state ->
  step:('state -> 'act -> 'state option) ->
  'act event list ->
  verdict * int
