(** Exhaustive block-level crash-state enumeration (paper section 5):

    "We have also implemented a variant of DirtyReboot that does enumerate
    crash states at the block level, similar to BOB and CrashMonkey.
    However, this exhaustive approach has not found additional bugs and is
    dramatically slower to test, so we do not use it by default."

    At a crash point, every dependency-closed, per-extent-prefix subset of
    the pending writes — including page-granular torn tails — is a reachable
    crash state. This module enumerates them (up to a cap), applies each to
    a {e clone} of the disk, recovers a fresh store on it, and checks the
    persistence property against the crash model's allowed survivors under
    that subset. Nothing about the live store is mutated. *)

type stats = {
  states : int;  (** crash states evaluated *)
  truncated : bool;
      (** hit the cap before exhausting the space, or stopped because the
          {!Par.first} task running it was overtaken ({!Par.cancelled}) *)
  violations : int;
  first_violation : string option;
}

val pp_stats : Format.formatter -> stats -> unit

(** [enumerate ~store_config ~max_states ~include_torn store model] —
    enumerate and check the crash states reachable right now. *)
val enumerate :
  store_config:Harness.S.config ->
  max_states:int ->
  include_torn:bool ->
  Harness.S.t ->
  Model.Crash_model.t ->
  stats

(** [hook ~max_states ~acc] — a {!Harness} pre-crash hook that enumerates
    at every [DirtyReboot], accumulates into [acc], and reports the first
    violation (failing the harness run). *)
val hook :
  max_states:int -> acc:stats ref -> Harness.S.t -> Model.Crash_model.t -> string option
