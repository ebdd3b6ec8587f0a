(** Detection driver for the seeded-defect catalog (paper Fig. 5, our E1).

    For each property-based fault, runs random conformance sequences (with
    the profile appropriate to the fault's property class) until a check
    fails, then minimizes the counterexample. Concurrency faults
    (#11-#14, #16) are checked by the stateless-model-checking harnesses
    in the [conc] library, not here. *)

type method_ =
  | Pbt of Gen.profile  (** property-based conformance checking *)
  | Model_validation  (** property test of the reference model itself *)
  | Smc  (** stateless model checking (handled by the [conc] library) *)

val method_name : method_ -> string

(** The checker the methodology assigns to each fault. *)
val method_for : Faults.t -> method_

type result = {
  fault : Faults.t;
  found : bool;
  sequences : int;  (** sequences executed until detection (or the budget) *)
  total_ops : int;
  fired : int;
      (** times the injected defect's buggy branch ran — an exact atomic
          total, but under [~domains > 1] it includes speculative
          evaluations past the failing seed, so it is diagnostic only and
          excluded from the determinism guarantee (every other field is
          byte-identical across domain counts) *)
  failure : Harness.failure option;
  original : Op.summary option;
  minimized : Op.summary option;
  minimized_ops : Op.t list option;
  min_stats : Minimize.stats option;
}

(** [detect ?config ?domains ?length ?max_sequences ?minimize ~seed fault]
    hunts [fault] with only it enabled ({!Faults.only}). For [Smc] faults
    the result is [found = false] with zero work — use the [conc]
    harnesses.

    [domains] (default 1) shards the property-based hunt across OCaml
    domains with {!Par.first} over {!Harness.run_seed}: the reported
    sequence count and counterexample are the lowest failing seed's,
    identical for every domain count, and minimization always replays
    sequentially. Model-validation hunts use one shared random stream and
    stay sequential. *)
val detect :
  ?config:Harness.config ->
  ?domains:int ->
  ?length:int ->
  ?max_sequences:int ->
  ?minimize:bool ->
  seed:int ->
  Faults.t ->
  result

(** {2 Hunts for the experiments} *)

(** [hunt ?domains fault ~seed ~count task] runs [task] on the seeds of
    [[seed, seed + count)] with only [fault] enabled ({!Faults.only}) and
    stops at the lowest seed whose task gives [Some x]. It returns the
    number of seeds up to and including that one, with [x]; [None] when
    no seed in the budget hits. [domains] (default 1) shards the hunt with
    {!Par.first}; the result is the same for every domain count. *)
val hunt :
  ?domains:int -> Faults.t -> seed:int -> count:int -> (int -> 'a option) -> (int * 'a) option

(** [series ~trials ~max_sequences ~seed f] runs [f] on the first seed of
    each trial's block, [seed + k * (max_sequences + 1)] for [k] from 0 to
    [trials - 1], in that order, and returns the hits [f] reports, sorted
    ascending. A trial that misses gives [None] and no hit. *)
val series : trials:int -> max_sequences:int -> seed:int -> (int -> int option) -> int list

(** [median hits] is the upper median of sorted [hits], [None] when empty. *)
val median : int list -> int option
