(** Biased random generation of operation sequences (paper section 4.2).

    Arguments are selected with probabilistic biases: Get/Delete prefer
    keys that were previously Put (otherwise successful reads are almost
    never exercised), and value sizes prefer the neighbourhood of page-size
    multiples (a frequent source of bugs — issues #1 and #10 both need
    frames that land next to a page boundary). Biases only raise
    probabilities; every case remains reachable, and {!unbiased} switches
    them off for the bias-ablation experiment (E7).

    {b Determinism contract}: generation is a pure function of the [rng]
    state and the arguments — equal seeds yield equal sequences, byte for
    byte. Nothing is drawn from global state, so distinct seeds are fully
    independent: this is what lets {!Harness.run_par} evaluate a seed range
    in any order, on any number of domains, without changing a single
    generated operation. Each parallel task builds its own [rng] from its
    seed; a {!Util.Rng.t} must never be shared across domains. *)

type profile =
  | Crash_free  (** section 4: API + maintenance ops only *)
  | Crashing  (** section 5: adds DirtyReboot/CleanReboot and flushes *)
  | Failing  (** section 4.4: adds disk failure injection *)
  | Full  (** everything *)

val profile_name : profile -> string

type bias = {
  key_reuse : float;  (** P(pick a previously-put key) for Get/Delete *)
  page_size_values : float;  (** P(value length near a page multiple) *)
  uuid_magic : float;  (** chunk-store UUID bias (see {!Chunk.Chunk_store.set_uuid_bias}) *)
  max_value : int;  (** maximum value length *)
  batch_weight : int;
      (** weight of [PutBatch] in the base alphabet ([DeleteBatch] gets a
          third of it); 0 (the default) leaves the alphabet — and thus the
          exact sequences of the deterministic detection experiments —
          unchanged *)
  scan_weight : int;
      (** weight of [Scan] in the base alphabet; 0 (the default) keeps the
          alphabet unchanged, same contract as [batch_weight]. Bounds are
          drawn from the biased key pool with ~30% open ends. *)
}

val default_bias : bias

(** All biases off: uniform keys, uniform sizes. *)
val unbiased : bias

(** [sequence ~rng ~bias ~profile ~page_size ~extent_count ~length] draws a
    whole test input. *)
val sequence :
  rng:Util.Rng.t ->
  bias:bias ->
  profile:profile ->
  page_size:int ->
  extent_count:int ->
  length:int ->
  Op.t list
