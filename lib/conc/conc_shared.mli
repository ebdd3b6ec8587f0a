(** [Store.Shared]'s staging protocol under Smc — the checked version of
    the shared store's race-freedom and lock-order argument, run on the
    code that ships.

    {!Staging.Make} holds every lock the shared store takes: the staging
    {!Shard_table}, the stack and maint locks, get, staging, the flush's
    coarse and chunked drains and the overlay of list and scan.
    [Store.Shared] instantiates it over [Store.Default]; this module
    instantiates it over a base of one {!Smc.Cell} (plain accesses,
    protected only by the stack lock) and explores it by DFS with the
    FastTrack race monitor and lock-order analysis attached. Its locks,
    created inside the exploration, take {!Rwlock}'s exploration path.

    - {e shared/cross} — writers on distinct shards race a reader:
      isolation, no cross-shard interference;
    - {e shared/flush} — writer, coarse flush ([flush_chunk = 0]) and
      reader on one shard: a get holds its shard read lock across the
      staged probe {e and} the base read, so it is atomic against the
      flush;
    - {e shared/scan} — a scan races a put and a chunked flush
      ([flush_chunk = 1]): it sees every key acked before it started;
    - {e shared/order} — batch staging (one shard write lock at a time,
      ascending) races a flush: the accumulated lock graph must stay
      acyclic;
    - {e shared/maint} — a chunked maintenance flush races foreground
      readers on both shards: an acked staged value must stay observable
      through every chunk boundary, and the read on the other shard must
      keep flowing;
    - {e shared/maint-order} — the maintenance plane (a chunked flush,
      then compact) races a cross-shard batch and a foreground read: the
      lock graph over every acquisition path must stay acyclic.

    Fault #19 ({!Faults.F19_flush_clears_staging_early}) clears a shard's
    staging before applying it; [shared/maint] and [shared/scan] catch it
    within a DFS budget of 2,000.

    The [maint]/[shard]/[stack] class names on the protocol's locks feed
    [validate --shared --lint-graph]'s dynamic edge export, which
    [bin/lint.exe] checks is a subset of the statically extracted
    acquisition graph.

    Three-thread harnesses are not exhaustible within a realistic budget
    (unlike the two-thread {!Rwlock.Check} harnesses), so the gate is: no
    violation, no lock cycles, and a positive race-checked access count on
    every harness. *)

type report = { name : string; property : string; outcome : Smc.outcome }

val pp_report : Format.formatter -> report -> unit

(** [run ?budget ()] — explore all six harnesses under
    [Sanitize.default] with a DFS budget of [budget] schedules each
    (default 20_000). *)
val run : ?budget:int -> unit -> report list

(** No violation, no lock cycles, and [sanitize_accesses > 0] for every
    report. *)
val ok : report list -> bool
