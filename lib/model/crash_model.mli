(** The crash extension of the reference model (paper section 5).

    For sequential crashing executions the plain model is too strong: soft
    updates allow recent, not-yet-persistent mutations to be lost. This
    model tracks, per key, the history of staged versions with their
    dependencies, and defines exactly which post-crash states are allowed:

    - {e persistence}: the value observed after a crash must be some staged
      version at least as new as the newest version whose dependency
      reported persistent before the crash (or the pre-history baseline if
      no version was persistent);
    - {e forward progress} is checked separately by the harness (every
      dependency persistent after a clean shutdown).

    After checking, {!reconcile} adopts the surviving state so checking can
    continue across the reboot.

    Fault site #9: the paper's issue where the {e reference model itself}
    was not updated correctly after a crash during reclamation — the
    injected defect makes reconciliation keep the newest staged value
    instead of the observed survivor. *)

type t

type version = {
  value : string option;  (** [None] = delete *)
  dep : Dep.t;
}

type violation = {
  key : string;
  observed : string option;
  allowed : string option list;  (** allowed survivors, newest first *)
}

val pp_violation : Format.formatter -> violation -> unit

val create : unit -> t

val put : t -> key:string -> value:string -> dep:Dep.t -> unit
val delete : t -> key:string -> dep:Dep.t -> unit

(** Current (newest staged) value — the crash-free semantics. *)
val get : t -> key:string -> string option

(** Live keys under crash-free semantics, sorted. *)
val list : t -> string list

(** Keys that have ever been touched (staged or baseline), sorted — the
    set a post-crash check must examine. *)
val tracked_keys : t -> string list

(** [allowed_after_crash t ~key] — survivors permitted by the persistence
    property, newest first. *)
val allowed_after_crash : t -> key:string -> string option list

(** [allowed_after_crash_under ~pred t ~key] — like
    {!allowed_after_crash}, but a pending write counts as persistent when
    [pred] holds; the crash-state enumerator asks "what would be allowed if
    subset S persisted?" without mutating anything. *)
val allowed_after_crash_under :
  pred:(Dep.write -> bool) -> t -> key:string -> string option list

(** [reconcile t ~key ~observed] validates [observed] against the allowed
    survivors and adopts it as the new baseline. *)
val reconcile : t -> key:string -> observed:string option -> (unit, violation) result

(** [mark_crashed t] flags every tracked key as awaiting reconciliation.
    The harness calls it when a crash happens; keys it cannot read back
    (injected failures) stay flagged, and the next successful read resolves
    them via {!resolve_read}. *)
val mark_crashed : t -> unit

val needs_reconcile : t -> key:string -> bool

(** [resolve_read t ~key ~observed] — validate a read of a key still
    awaiting post-crash reconciliation. If the observation matches the
    newest staged value, only the flag is cleared (dependency tracking
    continues); otherwise the model reconciles to the observed survivor. *)
val resolve_read : t -> key:string -> observed:string option -> (unit, violation) result
