(** E13: the chaos campaign — randomized fault-injection validation of the
    fleet's fault-tolerant request plane ([bin/validate --chaos]).

    Each campaign replays a seeded, fully deterministic mix of client
    operations and chaos (random fault arming, targeted extent failures,
    node crashes, node losses, heals, repairs) against a 5-node fleet,
    checking a per-key model: an acknowledged mutation must stay readable;
    a failed mutation is indeterminate (its value {e may} be observed).
    After a final heal-everything + repair phase, every key must return an
    admissible value, fully replicated, with the dirty set drained.

    Randomness is baked into the op list (each chaos op carries its own
    seed), so failing campaigns replay exactly and shrink with a ddmin
    span-removal minimizer. {!check_teeth} proves the checker is not
    vacuous: with fault #18 (quorum ack without durable flush) enabled it
    must catch durability violations. *)

type op =
  | Put of { key : string; value : string }
  | Put_many of (string * string) list
  | Delete of { key : string }
  | Get of { key : string }
  | Scan of { lo : string option; hi : string option }
      (** fleet-wide range scan; each model key in range is judged by what
          the scan said about it (value or absence must be admissible) *)
  | Arm_faults of { node : int; transient : float; permanent : float; seed : int }
  | Disarm_faults of { node : int }
  | Fail_extent of { node : int; extent : int; permanent : bool }
  | Crash of { node : int; seed : int }
  | Destroy of { node : int }
  | Heal of { node : int; seed : int }
  | Repair

val pp_op : Format.formatter -> op -> unit

type violation = {
  at : int;  (** op index; [-1] = final convergence phase *)
  what : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** The census class of a violating campaign: [`Scan] when a scan during
    the ops read an inadmissible value or absence ([op N: scan ...]),
    else [`Repair] when every violation is in the final convergence phase,
    else [`Other]. {!print} tallies the failed campaigns by class. *)
val census_class : violation list -> [ `Scan | `Repair | `Other ]

type campaign_report = {
  seed : int;
  ops : int;
  violations : violation list;
  minimized : op list;  (** shrunk reproducer; [[]] when the campaign is clean *)
  trace : Tracecheck.Trace.entry list;
      (** wire trace of the minimized reproducer — a counterexample from
          a non-deterministic run ships as a small, replayable artifact;
          with [capture] on, a clean campaign carries its full trace
          (for {!Trace_audit}); [[]] otherwise *)
  faults_injected : int;
  retries : int;
  failovers : int;
  read_repairs : int;
  breaker_opens : int;
  quorum_acks : int;
  partial_writes : int;
}

type summary = {
  campaigns : int;
  clean : int;  (** campaigns with zero violations *)
  total_ops : int;
  total_faults : int;
  total_retries : int;
  total_failovers : int;
  total_read_repairs : int;
  total_breaker_opens : int;
  total_quorum_acks : int;
  total_partial_writes : int;
  failed : campaign_report list;
  seconds : float;
}

(** [run ?domains ~campaigns ~length ~seed ()] — [campaigns] seeded
    campaigns of [length] ops each (defaults: 200 campaigns, 40 ops,
    seed 0). [domains] (default 1) shards campaigns across OCaml domains
    — each campaign owns a private fleet, and reports are merged back in
    ascending seed order, so the summary (everything but [seconds]) is
    byte-identical for every domain count. [capture] (default false)
    attaches a fresh wire-trace recorder to every campaign's fleet
    (reports then carry their trace) — campaigns are sequential within a
    domain and traces are part of the seed-ordered report, so the
    byte-identity guarantee is unchanged. *)
val run :
  ?domains:int -> ?campaigns:int -> ?length:int -> ?seed:int -> ?capture:bool -> unit -> summary

(** Fleet size every campaign runs against. *)
val nodes : int

(** [fleet_config ~seed] — the deterministic fleet configuration of
    campaign [seed] ({!nodes} nodes, replication 3, small store
    geometry), exactly as {!run} builds it. *)
val fleet_config : seed:int -> Fleet.config

(** [gen ~length ~seed] — the deterministic op list of campaign [seed],
    exactly as {!run} would generate it. *)
val gen : length:int -> seed:int -> op list

(** [run_ops ?trace ~seed ops] — execute one campaign (fresh fleet,
    model checking, convergence phase) and return its violations, a
    fleet-counter reader, and the injected-fault count. [?trace] records
    the campaign's wire trace ({!Tracecheck.Trace}): request-plane
    intervals from the fleet, fault/extent markers from the driver.
    Assumes the global fault toggles are already set ({!run} disables
    everything, {!check_teeth} arms #18). *)
val run_ops :
  ?trace:Tracecheck.Trace.Recorder.t ->
  seed:int ->
  op list ->
  violation list * (string -> int) * int

(** [check_teeth ()] re-runs campaigns with fault #18 (quorum
    acknowledgement without durable flush) enabled and returns how many
    caught a violation — zero means the checker has lost its teeth.
    [domains] as in {!run} (#18 stays armed for the whole sweep; workers
    only read the toggle). *)
val check_teeth : ?domains:int -> ?campaigns:int -> ?length:int -> ?seed:int -> unit -> int

(** Campaigns {!check_teeth} runs by default (20): also the smallest run
    whose coverage and teeth decide its verdict. *)
val teeth_window : int

(** [passes ~campaigns ~clean ~blind_spots ~teeth] — the verdict of a run
    of [campaigns] campaigns, [clean] of them without a violation, with the
    coverage counters in [blind_spots] never fired and [teeth] teeth
    campaigns catching #18. A violation always fails it. Blind spots and
    toothless teeth fail it only from {!teeth_window} campaigns up: a
    one-campaign replay of a printed reproducer rarely fires every
    request-plane counter. *)
val passes : campaigns:int -> clean:int -> blind_spots:string list -> teeth:int -> bool

val print : summary -> unit
