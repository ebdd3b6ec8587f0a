(** Component-level conformance checking of the chunk store (paper
    section 8.4): "we found it much easier to exercise corner case
    scenarios (especially fault scenarios) by writing tests that directly
    exercise internal component APIs".

    A dedicated operation alphabet drives the chunk store alone — no index,
    no shard semantics — against {!Model.Chunk_model}, checking payload
    conformance and the locator-uniqueness invariant on every step.
    Reclamation liveness comes from the harness's own live set, so the
    reclamation corner cases (issues #1 and #5) are reached in a handful of
    operations instead of whole-store sequences. *)

type op =
  | C_put of int  (** payload size *)
  | C_get of int  (** index into the chunks created so far *)
  | C_drop of int  (** mark a chunk dead (a delete's effect) *)
  | C_reclaim  (** reclaim the extent holding the oldest dead chunk *)
  | C_pump of int
  | C_fail_once of int  (** arm a one-shot IO failure on an extent *)

val pp_op : Format.formatter -> op -> unit

type failure = {
  step : int;
  op : op;
  message : string;
}

val pp_failure : Format.formatter -> failure -> unit

type outcome = Passed | Failed of failure

(** [run ~seed ~length] generates and checks one component-level
    sequence. Deterministic per seed, so a hunt shards it across domains:
    {!Detect.hunt} over [run] (see [Experiments.Component_level]). *)
val run : seed:int -> length:int -> op list * outcome
