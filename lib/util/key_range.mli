(** Inclusive key ranges, the bounds every scan takes.

    [None] leaves that side unbounded; keys compare as byte strings. *)

(** [mem ~lo ~hi key] is [lo <= key <= hi]. *)
val mem : lo:string option -> hi:string option -> string -> bool
