(** Exhaustive block-level crash-state enumeration (paper section 5):

    "We have also implemented a variant of DirtyReboot that does enumerate
    crash states at the block level, similar to BOB and CrashMonkey.
    However, this exhaustive approach has not found additional bugs and is
    dramatically slower to test, so we do not use it by default."

    At a crash point, the reachable crash states are exactly those
    {!Io_sched.crash_states} yields: every state {!Io_sched.crash} can
    produce, page-granular torn tails included, each once. For each (up to
    a cap) this module writes the state to a {e clone} of the disk,
    recovers a fresh store on it, and checks the persistence property
    against the crash model's allowed survivors when exactly the state's
    whole writes persisted. Nothing about the live store is mutated. *)

type stats = {
  states : int;  (** crash states evaluated *)
  truncated : bool;
      (** hit the cap before exhausting the space, or stopped because the
          {!Par.first} task running it was overtaken ({!Par.cancelled}) *)
}

(** [hook ~max_states ~acc] — a {!Harness} pre-crash hook that evaluates
    at most [max_states] crash states at every [DirtyReboot], accumulates
    into [acc], and stops at the first violating state, reporting it
    (failing the harness run). *)
val hook :
  max_states:int -> acc:stats ref -> Harness.S.t -> Model.Crash_model.t -> string option
