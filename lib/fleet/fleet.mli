(** A fleet of ShardStore storage nodes with shard replication and a
    fault-tolerant request plane — the layer above the paper's scope that
    motivates its design decisions.

    Context from the paper: "Amazon S3 is designed for eleven nines of
    data durability, and replicates object data across multiple storage
    nodes, so single-node crash consistency issues do not cause data loss.
    We instead see crash consistency as reducing the cost and operational
    impact of storage node failures" (section 2.2), and section 8.4 lists
    validating ShardStore's role in the wider system as future work.

    This module implements the minimum of that wider system:

    - rendezvous-hashed placement of each shard on [replication] nodes;
    - {e health tracking}: a per-node failure detector (Healthy / Suspect /
      Down) driven by observed request outcomes on the fleet's logical
      clock, with exponential backoff before re-probing a Suspect node and
      a circuit breaker that stops routing to a Down node until {!repair}
      or {!heal_node} re-closes it;
    - {e retry with backoff}: [`Transient] store errors (see
      {!Store.Default.error_class}) are retried a bounded number of times;
      a [`Permanent] error trips the breaker immediately;
    - {e quorum commit}: {!put} / {!put_many} acknowledge once
      [write_quorum] replicas (default: majority) are durably flushed;
      acknowledged-but-under-replicated keys join a dirty set that
      {!repair} drains;
    - {e failover reads with read-repair}: {!get} walks the placement in
      rank order, skips Down nodes, and re-replicates onto lagging
      replicas;
    - node crash (dirty reboot: survives with its durable data) versus
      node loss (disk replacement: empty), and {!repair}, which restores
      full replication and reports how many bytes had to move — the
      quantity crash consistency is meant to keep small.

    Fleet behaviour is observable: [fleet.retry], [fleet.breaker_open],
    [fleet.quorum_ack], [fleet.read_repair] and [fleet.partial_write] are
    coverage counters, and each node exports a [fleet.node_health] gauge
    (0 healthy / 1 suspect / 2 down). The chaos campaign
    ({!Experiments.Chaos}, [bin/validate --chaos]) validates the whole
    plane: every acknowledged write stays readable under randomized faults,
    crashes and losses, and repair converges to full replication. *)

type t

type config = {
  nodes : int;
  replication : int;  (** replicas per shard *)
  store : Store.Default.config;
}

val default_config : config

(** Fault-tolerance knobs of the request plane. *)
type ft_config = {
  write_quorum : int option;
      (** replicas that must durably acknowledge a write before the fleet
          does; [None] = majority of [replication], [Some replication] =
          the strongest (every replica) *)
  max_retries : int;  (** bounded retries of [`Transient] errors per attempt *)
  down_after : int;  (** consecutive failures before the breaker trips *)
  backoff_base : int;  (** Suspect re-probe backoff, in logical ticks *)
  backoff_max : int;  (** cap on the exponential backoff *)
}

(** Majority quorum, 2 retries, Down after 3 consecutive failures,
    backoff 4 ticks doubling up to 64. *)
val default_ft : ft_config

(** Node health as the failure detector sees it. [Suspect] nodes are only
    routed to once their backoff expires; [Down] nodes never (the circuit
    breaker) until {!repair} or {!heal_node} observes them working. *)
type health = Healthy | Suspect | Down

type error =
  | Node_failed of { node : int; error : Store.Default.error }
      (** the structured store-level cause; callers can match on the
          variant instead of parsing a rendered message *)
  | No_live_replica of string  (** key unreadable on every placement *)
  | Quorum_not_met of { key : string; acked : int; needed : int }
      (** too few replicas durably acknowledged the write *)

val pp_error : Format.formatter -> error -> unit

(** Acknowledgement of a quorum write: how many replicas hold the shard
    durably, and which placements are lagging (to be healed by repair). *)
type ack = { replicas : int; lagging : int list }

(** [create ?obs ?trace ?ft config] — fleet-level counters ([fleet.put],
    [fleet.retry], [fleet.quorum_ack], ...) land in [obs] or a fresh
    fleet-scoped registry; each node's store keeps its own per-instance
    registry ([Store.Default.obs] of {!node_store}), so two nodes'
    series never collide.
    [ft] defaults to {!default_ft}. [?trace] attaches a wire-trace
    recorder ({!Tracecheck.Trace.Recorder}, src ["fleet"]): every
    request-plane operation is recorded as an invocation/response
    interval (a traced {!scan} also records the point reads it resolves
    candidates with), and the control plane emits markers —
    crash/restart, destroy, heal, repair — for offline audit by
    {!Tracecheck.Audit}. *)
val create : ?obs:Obs.t -> ?trace:Tracecheck.Trace.Recorder.t -> ?ft:ft_config -> config -> t

val node_count : t -> int

(** The resolved write quorum (majority unless overridden). *)
val write_quorum : t -> int

(** The fleet-level registry. *)
val obs : t -> Obs.t

(** [node_store t ~node] — one node's store, for invariant checks and
    introspection in tests; request-plane traffic must go through the
    fleet API. *)
val node_store : t -> node:int -> Store.Default.t

(** [node_disk t ~node] — the disk under one node's store (chaos campaigns
    arm fault injection through this). *)
val node_disk : t -> node:int -> Disk.t

(** Placement of a key: the [replication] nodes ranked by rendezvous
    hashing. Deterministic. *)
val placement : t -> string -> int list

(** {2 Health} *)

val health : t -> node:int -> health

(** Whether the request plane would route to the node right now (Healthy,
    or Suspect with its backoff expired). *)
val node_available : t -> node:int -> bool

(** Ticks until a Suspect node is re-probed (0 when available or Down). *)
val node_probe_in : t -> node:int -> int

(** Advance the fleet's logical clock by one tick (tests and chaos drivers
    use this to expire backoffs without issuing requests). *)
val tick : t -> unit

(** [heal_node t ~node] — operator override: mark the node Healthy and
    re-close its breaker (e.g. after replacing the medium). *)
val heal_node : t -> node:int -> unit

(** {2 Request plane} *)

(** [put t ~key ~value] writes the shard on every available placement and
    acknowledges once [write_quorum] replicas durably flushed it. A
    degraded acknowledgement ([lagging <> []]) counts [fleet.quorum_ack] /
    [fleet.partial_write] and records the key in the dirty set for
    {!repair}. Below quorum the put fails ({!Quorum_not_met}, or the first
    structured node failure) — but any replicas already written are
    likewise recorded as dirty, not leaked. *)
val put : t -> key:string -> value:string -> (ack, error) result

(** [put_many t ops] writes a batch of shards with group commit: keys are
    grouped by placement, each replica node applies its share through
    [Store.put_batch], and the durable-acknowledgement flush (index +
    superblock + writeback drain) runs {e once per node per batch} instead
    of once per key. Quorum accounting is per key, as in {!put}; the batch
    succeeds when every key reached quorum. Counted under [fleet.put_many];
    per-node batch sizes land in the [fleet.batch_size] histogram. *)
val put_many : t -> (string * string) list -> (unit, error) result

(** [get t ~key] reads from the first placement that has the shard,
    failing over past Down, erroring and not-found replicas
    ([fleet.get_failover]). A hit after a not-found replica triggers
    read-repair: the lagging replicas are re-replicated inline
    ([fleet.read_repair]); skipped or failing replicas leave the key in
    the dirty set instead. [Error No_live_replica] only when some replica
    was unreachable and none served the shard. *)
val get : t -> key:string -> (string option, error) result

(** [scan t ?lo ?hi ()] — fleet-wide range scan over [lo <= key <= hi]
    ([None] = unbounded), ascending. The candidate set is the union of
    every available node's local scan plus the in-range dirty keys; each
    candidate resolves through the failover {!get}, so dirty-set authority
    and read-repair apply exactly as for point reads. Errors if some
    candidate key currently has no live replica, and with
    [No_live_replica] when at least [replication] nodes are unavailable
    or replaced by {!destroy_node} since the last clean {!repair}: some
    key may then have no replica that can list it. *)
val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, error) result

(** [delete t ~key] tombstones the shard durably on {e every} placement —
    a partial tombstone would let {!repair} resurrect the shard from a
    replica that missed it, so the delete fails fast ({!Quorum_not_met})
    if any placement is unavailable. *)
val delete : t -> key:string -> (unit, error) result

(** {2 Failures and repair} *)

(** [crash_node t ~rng ~node] — power loss: the node reboots and recovers
    its durable state (with fault injection suspended — recovery reads
    back what the disk has, it does not re-roll the fault dice). If
    recovery itself fails the node is marked Down
    ([fleet.crash_recovery_failed]) instead of raising. *)
val crash_node : t -> rng:Util.Rng.t -> node:int -> unit

(** [destroy_node t ~node] — total loss (disk replacement): the node comes
    back empty, and Healthy. It counts as replaced for {!scan} until a
    {!repair} pass sees every copy and completes with no failed shard. *)
val destroy_node : t -> node:int -> unit

(** Keys known to be under-replicated (degraded acks, failed read-repairs,
    partial writes) awaiting {!repair}. *)
val dirty_count : t -> int

val dirty_keys : t -> string list

(** [peek t ~node ~key] — faults-suspended direct read of one replica;
    introspection for checkers, never part of the request plane. *)
val peek : t -> node:int -> key:string -> (string option, Store.Default.error) result

type repair_report = {
  shards_scanned : int;
  shards_repaired : int;  (** replicas re-created *)
  shards_failed : int;  (** replicas that could not be re-created this pass *)
  bytes_moved : int;  (** repair network traffic *)
}

(** [repair t] restores full replication for every shard readable from at
    least one replica, scanning the union of node listings plus the dirty
    set. Unlike the request plane it attempts {e every} placement
    regardless of health — it is the breaker's heal path: a recovered
    node's first successful copy re-closes its breaker. Keys it fully
    replicates (or finds no copy of) leave the dirty set. A pass in which
    every node listed its keys, no search for a key's copy hit a read
    error and no shard failed clears every node's replaced mark (see
    {!scan}). *)
val repair : t -> (repair_report, error) result

(** Live replicas of a key (placements that can currently serve it). *)
val replica_count : t -> key:string -> int
