(** Append-only benchmark records.

    Each bench run appends one JSON line to [BENCH_<name>.json] in the
    repository root, so successive runs accumulate a commit-stamped
    history that can be diffed or plotted without any external tooling:

    {v
    {"bench":"batch","commit":"d5f8829...","unix_time":1754610000,
     "smoke":false,"cores":2,
     "workload":{"domains":"1","ops":"1024","value_bytes":"64"},
     "metrics":{"ops_per_sec":41210.3},
     "latency":{"put_us":{"count":1024,"mean":22.9,"p50":64,...}}}
    v}

    Numbers go through {!Obs.json_float}, so they read back exactly and a
    non-finite one is a quoted string.

    The commit hash comes from [.git/HEAD] directly (resolving a [ref:]
    indirection through [.git/refs/...] and [.git/packed-refs]) — no
    subprocess, so records work in sandboxes without a [git] binary. *)

(** Latency digest of one {!Obs.Histogram}. Quantiles are upper bounds of
    the first bucket reaching the rank — exact for bucketed data, i.e.
    "p99 <= this bound". The overflow bucket reports the largest finite
    bound (marked by [saturated]). *)
type digest = {
  count : int;
  sum : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  saturated : bool;  (** a quantile landed in the overflow bucket *)
}

(** Digests for every histogram registered in [obs], keyed by name
    (label sets collapse onto the same name are suffixed). Empty
    histograms are skipped. *)
val latencies : Obs.t -> (string * digest) list

(** The current HEAD commit hash, or ["unknown"] when no [.git] is found
    walking up from [dir] (default: the working directory). *)
val commit : ?dir:string -> unit -> string

(** [append ~bench ~smoke ~cores ~domains ~workload ~metrics ?obs ()]
    appends one record to [BENCH_<bench>.json] next to [.git] (or in
    [dir] when no repository is found) and returns the path written.
    [smoke] says whether the run used the small CI budgets and [cores] is
    the host's core count, so a trajectory only compares like with like.
    [domains] is the domain count the bench ran with (the largest count
    exercised, for a multi-count campaign) and lands as ["domains"] in
    every workload stanza; [workload] captures the remaining knobs
    (string key/value), [metrics] the headline numbers, and [obs]
    contributes per-histogram latency digests. The [unix_time] stamp is
    read through {!Util.Wallclock}, the repo's single wall-clock funnel.
    The gate benches call this through {!Bench_gate.finish}. *)
val append :
  ?dir:string ->
  bench:string ->
  smoke:bool ->
  cores:int ->
  domains:int ->
  workload:(string * string) list ->
  metrics:(string * float) list ->
  ?obs:Obs.t ->
  unit ->
  string
