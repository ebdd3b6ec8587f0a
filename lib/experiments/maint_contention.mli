(** E17: what a racing maintenance domain costs the foreground — and
    what the maintenance plane buys over the global-stack-lock baseline.

    Four timed arms, identical seeded foreground workloads (N domains,
    get-heavy with periodic [put_batch] bursts that spike staging, over
    a preloaded key set, so gets read through the stack lock where flush
    contention bites):

    - {e fg-only} — no flushing at all: the raw foreground ceiling
      (staging grows unboundedly; nobody drains it);
    - {e inline-coarse} — the {b global-stack-lock baseline}: no
      maintenance domain exists, so every foreground domain must
      periodically stall on a whole-store flush whose shard drains hold
      the stack write lock end to end ([flush_chunk = 0]) — the only way
      to keep staging bounded before the maintenance plane;
    - {e maint-coarse} — a racing {!Store.Shared.Maint} domain driving
      the same whole-drain flush protocol ([flush_chunk = 0]);
    - {e maint-narrow} — the full maintenance plane: the racing domain
      drains with narrowed stack critical sections ([flush_chunk = 8]),
      so foreground reads interleave with a drain.

    Each arm reports the median over [repeats] runs. The headline gate
    ({!narrow_beats_baseline}) is that a foreground that never flushes —
    because a racing narrowed maintenance domain does it instead — is at
    least as fast as one stalling on its own global-stack-lock flushes.
    {!ok} additionally requires zero foreground/maintenance errors and a
    passing single-domain {e byte-identity} check — the same op sequence
    driven through [Store.Shared] (with maintenance calls interspersed)
    and through a bare [Store.Default] must agree on every value and the
    final listing, byte for byte.

    [bench/maint_bench.exe] records these numbers into
    [BENCH_maint.json]. *)

type arm = {
  label : string;
  flush_chunk : int;
  fg_ops : int;  (** foreground ops issued (all domains) *)
  fg_errors : int;
  seconds : float;  (** foreground wall-clock (maintenance excluded) *)
  ops_per_sec : float;
  maint : Store.Shared.Maint.stats option;
  errors_by_kind : (string * int) list;
      (** the store's [store.maint_error] counts summed over [op], one
          pair per error kind (zeros included), sorted by kind: every
          failed flush, compaction or reclaim, by the maintenance domain
          or by the base store after a mutation *)
}

type result = {
  domains : int;
  ops_per_domain : int;
  keys : int;
  value_bytes : int;
  repeats : int;
  arms : arm list;  (** fg-only, inline-coarse, maint-coarse, maint-narrow *)
  conformance_ok : bool;  (** single-domain byte-identity vs [Store.Default] *)
}

val run :
  ?domains:int ->
  ?ops_per_domain:int ->
  ?keys:int ->
  ?value_bytes:int ->
  ?repeats:int ->
  ?seed:int ->
  ?conformance_ops:int ->
  unit ->
  result

(** Look up an arm by label; raises [Not_found] on an unknown label. *)
val arm : result -> string -> arm

(** Foreground throughput with racing narrowed flushes >= the
    global-stack-lock baseline (foreground stalling on its own
    whole-drain flushes). The maintenance plane's headline. *)
val narrow_beats_baseline : result -> bool

(** The two racing arms compared: narrowed >= whole-drain stack holds.
    Only meaningful with real parallelism — on one core every chunk
    boundary is a forced context switch — so the bench asserts this on
    multi-core hosts only. *)
val narrow_beats_coarse : result -> bool

(** Zero foreground and maintenance errors, maintenance actually ran in
    the racing arms, and the byte-identity check passed. (Deliberately
    does NOT gate on the throughput orderings: those are
    hardware-dependent — the bench records both and asserts
    {!narrow_beats_coarse} on multi-core runners only.) *)
val ok : result -> bool

val print : result -> unit
