(** Reference model of the chunk store: an in-memory locator → payload map.

    Used by the chunk-level conformance harness: every implementation PUT
    is mirrored here under the locator the implementation returned, every
    GET is compared, and the harness checks the uniqueness invariant that
    other code relies on — a locator handed out once is never handed out
    again (locators embed the extent epoch, so evacuation + reset produces
    fresh ones).

    Fault site #15: the paper's issue where the reference model re-used
    chunk locators; the injected defect keys the model's map by
    (extent, offset) only, conflating epochs. *)

type t

type key_clash = { locator : Chunk.Locator.t; existing_payload : string }

val create : unit -> t

(** [track t ~locator ~payload] mirrors an implementation put. Returns
    [Error] when the locator was already live (uniqueness violation). *)
val track : t -> locator:Chunk.Locator.t -> payload:string -> (unit, key_clash) result

(** [expected t ~locator] — the payload the implementation must return. *)
val expected : t -> locator:Chunk.Locator.t -> string option

(** [drop t ~locator] mirrors a chunk becoming dead (delete/evacuate). *)
val drop : t -> locator:Chunk.Locator.t -> unit

val size : t -> int

(** {2 Model as mock}

    When the chunk-store model stands in for the real chunk store in unit
    tests, it must {e generate} locators itself. Other code assumes these
    are unique while live — the assumption issue #15 violated. *)

(** [mock_put t ~payload] stores [payload] under a freshly generated
    locator and returns it. Under fault #15 the generator re-uses a small
    window of slots, so a busy test eventually receives a locator that is
    still live. *)
val mock_put : t -> payload:string -> Chunk.Locator.t
