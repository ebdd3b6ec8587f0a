(** Deterministic parallel seed sweeps over OCaml 5 domains.

    The validation stack's currency is {e sequences per second}: issue #10
    alone took 8,482 sequences (678k operations) to surface, and the
    detection-probability curves of the paper's evaluation (E6) are a direct
    function of how many seeds a budget can afford. This module scales that
    throughput with hardware while keeping the property that makes the whole
    methodology work — {b replayability}: every entry point is specified to
    return {e exactly} what the equivalent sequential loop returns, for any
    domain count, so counterexamples found on 8 domains replay and minimize
    on 1.

    {2 Execution model}

    Each call builds a transient pool of [domains] workers: the calling
    domain acts as worker 0 and [domains - 1] helpers are [Domain.spawn]ed
    for the duration of the call (at these granularities — thousands of
    store-harness runs per call — spawn cost is noise, so no persistent
    pool is kept alive between calls). The index range is split into one
    contiguous block per worker; a worker that drains its block {b steals}
    the upper half of the largest remaining block, so load imbalance (seeds
    that crash-reboot many times cost more than seeds that don't) evens out
    without any shared work list. Each worker owns a single atomic cell
    encoding its remaining [lo, hi) range; the owner takes from the bottom,
    thieves split off the top, and every index is executed exactly once.

    {2 What tasks may do}

    Tasks run concurrently on separate domains, so they must not share
    mutable state: each task is expected to build a private universe
    ({!Util.Rng}, [Disk], [Store], its model) from its seed, which is
    exactly what {!Lfm.Harness.run_seed} does. Global registries that tasks
    do touch are made safe elsewhere: {!Faults} firing counters and the
    {!Obs.Coverage} table are atomic (their totals are exact, not
    best-effort), and fault {e toggles} ({!Faults.enable}/[disable]) must
    only be flipped between sweeps, never from inside a task. The {!Smc}
    model checker is cooperative and single-domain; never run two SMC
    explorations from concurrent tasks. *)

(** [default_domains ()] is the runtime's recommendation for this host
    ([Domain.recommended_domain_count ()]), the sensible value for a
    [--domains] flag left unset. Always at least 1. *)
val default_domains : unit -> int

(** [sweep ?domains ~start ~count ~init ~step ~merge ()] folds [step] over
    every index of [[start, start + count)] exactly once and returns the
    combined accumulator.

    {b Determinism contract}: the result equals the sequential left fold
    [step (... (step (init ()) start) ...) (start + count - 1)] {e chunked
    at arbitrary contiguous boundaries}: workers fold disjoint contiguous
    segments with private accumulators (fresh [init ()] per segment), and
    at join the segment accumulators are merged with [merge] in ascending
    index order. Therefore the call returns byte-identical results for
    every [domains] whenever [merge] respects segment concatenation:
    [merge (fold xs) (fold ys) = fold (xs @ ys)] — true of sums, ordered
    list accumulation, "first/lowest hit wins" selections, and
    {!Obs.merge_into} aggregation (integral histogram sums make float
    addition exact, see [lib/obs/obs.mli]).

    [domains] defaults to 1 (purely sequential, no domain is spawned —
    parallelism is always opt-in so existing seeded experiments stay
    replayable verbatim). [count = 0] returns [init ()]. Exceptions raised
    by a task are re-raised in the caller after all workers join. *)
val sweep :
  ?domains:int ->
  start:int ->
  count:int ->
  init:(unit -> 'acc) ->
  step:('acc -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc

(** [first ?domains ~start ~count task] runs [task] on indices of
    [[start, start + count)] and returns the {b lowest} index whose task
    gives [Some x], with [x] — what the sequential early-exit loop returns —
    or [None] when no task does.

    Workers race ahead speculatively, so indices {e above} the lowest hit
    may run before the hit is known; their results are dropped and the
    winner is always the lowest-index hit, never the first found in
    wall-clock time. A worker whose whole range lies above the best hit so
    far abandons it. Side effects of such speculative runs are the one
    visible difference from a sequential run — which is why the global
    counters tasks touch are atomic totals but detection {e reports} are
    built only from the hit, and why minimization replays sequentially
    afterwards. Only the hit is held, never the results of the other
    tasks. Exceptions raised by a task are re-raised in the caller after
    all workers join.

    [domains] defaults to 1, which is exactly the sequential loop. *)
val first : ?domains:int -> start:int -> count:int -> (int -> 'a option) -> (int * 'a) option
