(** SimpleCacheSM — the block-cache entry lifecycle as an explicit state
    machine, in the style of the splinter-runtime cache state machines:
    the legal per-entry transitions are written down once and every
    implementation transition is audited against them.

    The machine is the one the shipped {!Cache} runs: a read cache with
    invalidate-on-write, so an entry is only ever absent, being fetched
    or resident. The cache drives each page entry through it and audits
    every transition via {!record}. *)

type state =
  | Empty  (** no data for this page *)
  | Reading  (** a miss claimed the entry; the fetch runs outside the lock *)
  | Clean  (** cached data matches the backing store *)

val state_name : state -> string
val pp_state : Format.formatter -> state -> unit

(** [legal old_s new_s] — is [old_s -> new_s] an edge of the lifecycle?
    Self-loops are not legal: a transition must change state. *)
val legal : state -> state -> bool

type violation = { page : int; old_s : state; new_s : state }

val pp_violation : Format.formatter -> violation -> unit

(** Transition auditor: implementations call {!record} on every state
    change; gates read {!checked} (coverage evidence) and {!violations}.
    Not thread-safe on its own — callers record under the lock that
    already protects the entry. *)
type audit

val auditor : unit -> audit
val record : audit -> page:int -> old_s:state -> new_s:state -> unit
val checked : audit -> int
val violations : audit -> violation list
