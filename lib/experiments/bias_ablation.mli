(** Experiment E7 — argument-bias ablation (paper section 4.2).

    The generator biases Get/Delete keys toward previously-Put keys, value
    sizes toward page-size multiples, and (for issue #10 hunts) chunk UUIDs
    toward the magic-byte collision. The paper's methodology only keeps a
    bias with quantitative evidence; this experiment provides it, measuring
    detection with each bias switched on and off, plus the coverage proxy
    the key-reuse bias targets (the successful-Get rate). *)

type arm = {
  label : string;
  bias : Lfm.Gen.bias;
  fault : Faults.t;
  detected : int;  (** trials that found the defect *)
  trials : int;
  median_sequences : int option;  (** over the successful trials *)
}

type report = {
  arms : arm list;
  hit_rate_biased : float;  (** successful-Get rate with key-reuse bias *)
  hit_rate_unbiased : float;
  seconds : float;
}

(** Trial [k] of an arm hunts the seed block of {!Lfm.Detect.series}.
    [domains] shards each hunt over that many racing domains
    ({!Lfm.Detect.hunt}); the report is seed-for-seed identical to
    [domains = 1]. *)
val run : ?domains:int -> ?max_sequences:int -> ?trials:int -> ?seed:int -> unit -> report
val print : report -> unit
