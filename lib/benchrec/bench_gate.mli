(** The gate-bench driver: everything [bench/batch_bench.ml],
    [scan_bench.ml], [par_bench.ml] and [maint_bench.ml] share, so each of
    them is only its arms (the timed runs and the tables they print) and
    its named checks.

    The driver owns:
    - the one option, [--smoke] (small budgets, for CI);
    - the one repeat statistic ({!median}); every timing goes through
      {!Util.Wallclock.timed};
    - the record-then-audit capture step ({!capture});
    - the host's core count, read once from {!Par.default_domains}, and
      the guard that skips a hardware-dependent check below its core
      count;
    - judging: every check runs and prints one verdict line before the
      exit status is decided ({!judge});
    - the [BENCH_<name>.json] record, labelled with [smoke] and [cores]
      ({!finish}).

    Nothing here calls [exit]: {!judge} and {!finish} return the status
    and the bench's toplevel exits with it. *)

type t = {
  smoke : bool;  (** [--smoke] was given *)
  cores : int;  (** the host's core count, as the guard and the record see it *)
}

(** [parse argv] reads [--smoke] from [argv] ([argv.(0)] is the program
    name); [cores] is [Par.default_domains ()]. [Error] carries the usage
    message. *)
val parse : string array -> (t, string) result

(** [parse Sys.argv], or the usage message on stderr and exit 2. *)
val init : unit -> t

(** [median ~by runs] is the run at index [n / 2] of [runs] sorted
    ascending by [by]: the middle run for an odd count, the upper of the
    two middle runs for an even one. A run, not an average, so the
    counters measured with it travel along. [runs] must not be empty. *)
val median : by:('a -> float) -> 'a list -> 'a

(** [capture ~byte_budget f] runs [f] against a fresh
    {!Tracecheck.Trace.Recorder}, then audits what it recorded offline:
    [f]'s result and the audit's report (which counts the events the
    byte budget refused). *)
val capture :
  byte_budget:int -> (Tracecheck.Trace.Recorder.t -> 'a) -> 'a * Tracecheck.Audit.report

type check

(** [check name judge] — [judge ()] returns whether the check holds and a
    one-line detail. With [~cores:n] the check is judged only on a host
    with at least [n] cores; with [~full_size:true], only without
    [--smoke]. A check that is not judged prints "skipped" and does not
    fail. *)
val check : ?cores:int -> ?full_size:bool -> string -> (unit -> bool * string) -> check

(** The check that a {!capture}'s audit is [Valid]. *)
val audit_check : string -> Tracecheck.Audit.report -> check

(** [judge t checks] runs every check in order, prints one verdict line
    each ("ok", "FAIL" or "skipped") to [ppf] (default: stdout), and
    returns 1 if any failed, else 0. *)
val judge : ?ppf:Format.formatter -> t -> check list -> int

(** [finish t ~bench ~domains ~workload ~metrics ?obs checks] appends the
    run's record ({!Bench_record.append} with [t]'s [smoke] and [cores]),
    prints its path, then {!judge}s [checks] and returns the status. *)
val finish :
  ?dir:string ->
  ?ppf:Format.formatter ->
  t ->
  bench:string ->
  domains:int ->
  workload:(string * string) list ->
  metrics:(string * float) list ->
  ?obs:Obs.t ->
  check list ->
  int
