(** Experiment E6 — pay-as-you-go scaling (paper sections 1 and 4.2: "we
    can run them for longer to increase the chance of finding issues (like
    fuzzing) ... we routinely run tens of millions of random test
    sequences before every deployment").

    For each fault, runs many independent hunts and reports the empirical
    probability of detection within increasing sequence budgets (the CDF of
    sequences-to-detection). *)

type curve = {
  fault : Faults.t;
  trials : int;
  hits : int list;  (** sequences-to-detection for the successful trials, sorted *)
  budgets : int list;
  probability : float list;  (** P(detected within budget), aligned with [budgets] *)
}

type report = {
  curves : curve list;
  seconds : float;
}

val run :
  ?domains:int -> ?faults:Faults.t list -> ?trials:int -> ?max_sequences:int ->
  ?budgets:int list -> ?seed:int -> unit -> report
(** Trial [k] hunts the seed block of {!Lfm.Detect.series}. [domains]
    shards each detection hunt over that many racing domains
    ({!Lfm.Detect.detect}); the report is seed-for-seed identical to
    [domains = 1]. *)

val print : report -> unit
