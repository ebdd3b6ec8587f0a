(** A multi-disk ShardStore storage node behind the RPC interface.

    Each disk is an isolated failure domain running an independent
    key-value store; requests are steered to disks by shard id
    (paper section 2.1). *)

type t

(** [create ?obs ?trace ?disks config] — [disks] independent stores
    (default 4). RPC-layer counters ([rpc.request] labelled by request
    kind, [rpc.error], [rpc.tick_error] and the [rpc.batch_ops]
    histogram) land in [obs] or a fresh rpc-scoped registry; each disk's
    store keeps its own per-instance registry ([Store.Default.obs] of
    {!store}; [Node_stats] flattens them into {!Message.metric} samples
    labelled [("disk", i)]). Per
    the repo convention (see [lib/obs/obs.mli]), [?obs] is the first
    optional argument. [?trace] attaches a wire-trace recorder
    ({!Tracecheck.Trace.Recorder}, src ["rpc"]): data-plane requests
    (put/get/delete/batch/scan) are recorded as invocation/response
    intervals — a paginated scan records its effective lower bound and
    marks only a token-free, unsaturated page [complete] — for offline
    audit by {!Tracecheck.Audit}. *)
val create :
  ?obs:Obs.t -> ?trace:Tracecheck.Trace.Recorder.t -> ?disks:int -> Store.Default.config -> t

val disk_count : t -> int

(** The RPC-layer registry. *)
val obs : t -> Obs.t

(** Deterministic steering: the disk serving a key, honouring explicit
    migrations. *)
val disk_of_key : t -> string -> int

(** Direct access to one disk's store (tests, maintenance). *)
val store : t -> disk:int -> Store.Default.t

(** [handle t req] — dispatch one request. Implementation failures map to
    [Error_response]; no exception escapes.

    [Batch_request] dispatch: each op is validated (empty / oversized keys
    and values per {!Message.max_op_key_bytes} and
    {!Message.max_op_value_bytes}) — a bad op gets its own [Op_error] and
    the rest proceed; valid ops are grouped by target disk (request order
    preserved per disk), maximal same-kind runs go through
    [Store.put_batch] / [Store.delete_batch] group commit, and the
    response carries one status per op in request order. *)
val handle : t -> Message.request -> Message.response

(** [handle_wire t bytes] — decode, dispatch, encode. Corrupt requests get
    an encoded [Error_response]. *)
val handle_wire : t -> string -> string

(** What one maintenance tick did: how many disks were visited, how many
    per-disk flush failures occurred (also counted under [rpc.tick_error])
    and how many writeback IOs were pumped. *)
type tick_report = { disks : int; errors : int; ios_pumped : int }

(** Run background maintenance (pump, flush cadences, reclaiming ahead
    when free extents run short: {!Store.S.reclaim_ahead}) on every disk.
    Failures are reported, not swallowed: each failed flush or reclaim
    bumps [rpc.tick_error] and shows up in the report. *)
val tick : t -> tick_report
