(** E16: wire-trace capture and offline linearizability audit
    ([bin/validate --trace-audit]).

    Every other checker in the stack replays a deterministic schedule;
    this experiment closes the remaining gap (OmniLink-style): record
    timestamped invocation/response events from runs that do {e not}
    replay, and validate the recorded history offline against the chaos
    campaign's per-key model lifted to interval histories
    ({!Tracecheck.Audit}). Three capture surfaces are audited:

    - {b chaos}: every campaign of the standard sweep re-runs with a
      recorder attached (faults armed by the ops, crash/heal markers
      included) and its trace must audit [Valid];
    - {b shared}: the racing multi-domain [Store.Shared] workload of
      {!Shared_lin} (gets, puts, deletes, two-key batches, narrow snapshot
      scans, mid-run flushes) recorded concurrently from all domains;
    - {b node}: an [Rpc.Node] request-plane workload, including a
      paginated scan driven through continuation tokens.

    {!teeth} proves the audit can say no: four forged histories — an
    acked write reading back absent, a stale read after an acked
    overwrite, a scan pairing values no single snapshot point allows,
    and a response timestamped before its invocation — must each be
    rejected, and with fault #18 (quorum ack without durable flush)
    armed, a put/crash-all/read-back scenario must be rejected in every
    campaign. *)

type teeth_case = {
  t_name : string;
  t_rejected : bool;
  t_verdict : Tracecheck.Audit.verdict;
  t_reason : string;  (** first rejection reason, [""] if none *)
}

type summary = {
  campaigns : int;
  chaos_valid : int;  (** campaigns whose trace audited [Valid] *)
  chaos_violations : int;  (** campaigns the chaos model itself flagged *)
  chaos_entries : int;
  chaos_ops : int;
  chaos_search_nodes : int;
  chaos_dropped : int;
  shared : Shared_lin.report;  (** the racing store run, its audit included *)
  node_requests : int;
  node_report : Tracecheck.Audit.report;
  forged : teeth_case list;
  f18_campaigns : int;
  f18_detected : int;  (** audits rejecting the armed-#18 scenario *)
  seconds : float;
}

(** [run ?domains ?campaigns ?length ?seed ?shared_ops ()] — audit
    [campaigns] chaos campaigns of [length] ops (sharded over [domains],
    defaults 200/40/seed 0), one racing {!Shared_lin.run} with
    [max 2 domains] domains x [shared_ops] ops each (default 300), one
    [Rpc.Node] workload, the forged-history teeth and the armed-#18
    teeth. *)
val run :
  ?domains:int ->
  ?campaigns:int ->
  ?length:int ->
  ?seed:int ->
  ?shared_ops:int ->
  unit ->
  summary

(** Everything green: every chaos trace [Valid], the shared run
    {!Shared_lin.ok} (its audit [Valid]), the node audit [Valid], every
    forged history rejected, and #18 detected in every campaign. *)
val ok : summary -> bool

val print : summary -> unit
