(** Experiment E4 — coarse vs block-level crash states (paper section 5):
    "we have also implemented a variant of DirtyReboot that does enumerate
    crash states at the block level ... this exhaustive approach has not
    found additional bugs and is dramatically slower".

    Compares three crash-state granularities on (a) detection of the
    crash-consistency faults and (b) checking throughput:

    - [Coarse]: whole-component decisions (persist everything eligible or
      nothing, never torn pages);
    - [Block_sampled]: the default — each DirtyReboot samples one
      dependency-closed subset with page-granular torn writes;
    - [Block_exhaustive]: at every DirtyReboot, {!Lfm.Crash_enum}
      enumerates {e all} (capped) block-level crash states on disk clones
      and checks each — sound like BOB/CrashMonkey, and dramatically
      slower, exactly as the paper reports. *)

type mode = Coarse | Block_sampled | Block_exhaustive

type detection = {
  fault : Faults.t;
  mode : mode;
  detected : bool;
  sequences : int;
}

type report = {
  detections : detection list;
  throughput : (mode * float) list;  (** sequences checked per second *)
  exhaustive_states : int;  (** crash states enumerated during the throughput run *)
  seconds : float;
}

val run :
  ?domains:int -> ?faults:Faults.t list -> ?max_sequences:int -> ?throughput_sequences:int ->
  ?seed:int -> unit -> report
(** [domains] shards each detection hunt over that many racing domains
    ({!Lfm.Detect.hunt}; throughput measurement stays sequential); the
    report is seed-for-seed identical to [domains = 1]. *)

val print : report -> unit
