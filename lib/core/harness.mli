(** The conformance checker (paper sections 4 and 5).

    [run] replays an operation sequence against a fresh store {e and} the
    crash-extended reference model, comparing results after every step:

    - request-plane results must match the model exactly — a Get never
      returns wrong data;
    - once failure injection has fired, implementation operations may fail
      where the model cannot (the "has failed" relaxation of section 4.4),
      but successful results must still match;
    - on [DirtyReboot] the crash-consistency properties of section 5 are
      checked: {e persistence} via per-key reconciliation against the
      model's allowed survivors, and on [CleanReboot] {e forward progress}
      (every dependency returned since the last reboot is persistent) plus
      full state equality.

    Runs are deterministic: the same configuration and sequence always
    yield the same outcome, which is what makes minimization (section 4.3)
    possible.

    {b Seed/determinism contract} (what [lib/par] relies on): a seed fully
    determines its universe. {!run_seed} builds a fresh [Rng] from the seed,
    generates the sequence with {!Gen.sequence}, and replays it against a
    fresh store and model; no state flows between seeds, so any set of seeds
    may be evaluated in any order — or on concurrent domains — and
    {!run_par} exploits exactly that, merging results back in ascending seed
    order so its output is byte-identical to the sequential loop.

    {b [?obs] convention}: as everywhere in this codebase, an optional
    metrics registry is accepted as [?obs], the {e first} optional argument,
    and omitting it means "don't aggregate", never "crash on metrics". *)

module S = Store.Default

type config = {
  store_config : S.config;
  uuid_bias : float;  (** forwarded to the chunk store's UUID generator *)
  harness_seed : int64;  (** drives crash-state selection *)
  full_check_every : int;  (** full model/impl equality check cadence (0 = only at reboots) *)
  pre_crash_hook : (S.t -> Model.Crash_model.t -> string option) option;
      (** invoked before every [DirtyReboot]; returning [Some msg] fails
          the run with a persistence violation. {!Crash_enum.hook} plugs in
          here for exhaustive block-level crash-state checking. *)
}

val default_config : config

type failure_kind =
  | Divergence of { key : string; expected : string option; actual : string option }
  | List_divergence of { expected : string list; actual : string list }
  | Unexpected_error of string  (** impl failed where the model cannot *)
  | Persistence_violation of string  (** data persistent before a crash unreadable after *)
  | Forward_progress_violation of string  (** dependency not persistent after clean shutdown *)

type failure = {
  step : int;  (** 0-based index of the operation that exposed the bug *)
  op : Op.t;
  kind : failure_kind;
  trace : Obs.event list;
      (** trailing events from the store's trace ring — the stack's recent
          activity leading up to the counterexample *)
}

val pp_failure : Format.formatter -> failure -> unit

type outcome = Passed | Failed of failure

val pp_outcome : Format.formatter -> outcome -> unit

(** [run config ops] — see module doc. *)
val run : config -> Op.t list -> outcome

(** [replay config ops] applies the sequence without checking and returns
    the store — for debugging counterexamples and for examples. *)
val replay : config -> Op.t list -> S.t

(** [run_seed config ~profile ~bias ~length ~seed] generates a sequence
    from [seed] and runs it. *)
val run_seed :
  config -> profile:Gen.profile -> bias:Gen.bias -> length:int -> seed:int -> Op.t list * outcome

(** {2 Parallel seed sweeps} *)

(** Aggregate result of sweeping a contiguous seed range. *)
type sweep = {
  total_ops : int;  (** operations generated across the swept seeds *)
  failures : int;  (** failing seeds *)
  first_failure : (int * Op.t list * failure) option;
      (** the {e lowest} failing seed with its generated sequence and
          failure — identical for every domain count *)
}

(** [run_par ?obs ?domains config ~profile ~bias ~length ~seed ~count]
    sweeps seeds [[seed, seed + count)] through {!run_seed}, sharded across
    [domains] OCaml domains by {!Par.sweep} (default 1 = plain sequential
    loop; parallelism is opt-in so existing seeded experiments replay
    verbatim).

    The result is byte-identical to a sequential sweep for any [domains]:
    each seed owns a private universe, and per-worker results are merged in
    ascending seed order. Every seed runs; to stop at the first failing
    seed, hunt with {!Par.first} over {!run_seed} as {!Detect.detect}
    does. Minimize the returned counterexample with {!Minimize.minimize},
    which replays sequentially.

    [?obs] aggregates every swept store's per-instance registry (in seed
    order, see {!Obs.merge_into}) into the given registry. *)
val run_par :
  ?obs:Obs.t ->
  ?domains:int ->
  config ->
  profile:Gen.profile ->
  bias:Gen.bias ->
  length:int ->
  seed:int ->
  count:int ->
  sweep
