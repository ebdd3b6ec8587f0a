(** Racing-domain linearizability workload over ONE shared store. It is
    the store half of [validate --shared] (the other half is
    {!Conc.Conc_shared}, which explores the store's staging protocol
    under [Smc]), the whole racing run of
    [validate --maint], and the shared-store surface of
    [validate --trace-audit].

    N real domains issue a seeded mix of get, put, delete, two-key batch,
    narrow snapshot scan (a three-key window) and flush against a single
    {!Store.Shared} with a {!Tracecheck.Trace.Recorder} attached, so every
    operation is recorded as an invocation/response interval from the
    domain that ran it, and every flush leaves a marker. After the
    domains join, the staging layer is drained and the shared view must
    agree with the underlying sequential store on every key. The whole
    recorded trace, post-join reads included, is then audited offline by
    {!Tracecheck.Audit} against the per-key committed/indeterminate
    model (OmniLink's method: recorded interval histories checked
    against one sequential specification).

    The key universe is scaled with the op count (total / 8 keys) so
    per-key histories stay short, inside the search's memo range, and
    put values are unique per (domain, op), which both strengthens the
    check (a stale read cannot masquerade as a fresh one) and prunes the
    search. *)

type report = {
  domains : int;
  ops_per_domain : int;
  shards : int;
  keys : int;
  flushes : int;  (** mid-run flushes issued by racing domains *)
  errors : int;  (** foreground operations that returned [Error] *)
  audit : Tracecheck.Audit.report;  (** the offline audit of the recorded trace *)
  final_drain_ok : bool;  (** post-join flush succeeded and staging is empty *)
  post_drain_consistent : bool;  (** Shared.get = underlying get for every key *)
  maint : Store.Shared.Maint.stats option;
      (** stats of the racing maintenance domain, when one was attached *)
}

val pp_report : Format.formatter -> report -> unit

(** Zero errors, a non-empty trace that audits [Valid], final drain
    clean, post-drain views consistent, and, when a maintenance domain
    raced the run, zero maintenance errors and at least one maintenance
    flush. *)
val ok : report -> bool

(** [run ?maint ()] — with [maint = true] (default false) a dedicated
    maintenance domain ({!Store.Shared.Maint}) races the foreground
    domains for the whole run: round-robin narrowed shard flushes plus
    periodic compactions and reclaims, all of which must be invisible to
    the recorded history. *)
val run :
  ?domains:int ->
  ?ops_per_domain:int ->
  ?shards:int ->
  ?seed:int ->
  ?maint:bool ->
  unit ->
  report
