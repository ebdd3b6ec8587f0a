(** The staging protocol of [Store.Shared], over any base store: every
    lock the shared store takes, written once.

    Mutations stage into a hash-sharded table ({!Shard_table}, one
    writer-preferring {!Rwlock} per shard, class ["shard"]); a flush
    drains a shard into the base while holding that shard's write lock
    and taking the {e stack lock} (one rwlock, class ["stack"], around
    every base access) per chunk of [flush_chunk] applied ops; the
    {e maint lock} (class ["maint"]) serializes the maintenance plane.
    Every path acquires along the global order

    {v maint < shard (ascending index) < stack v}

    with whatever the base takes (in [Store.Shared]: [cache], [lsm_run])
    innermost.

    [Store.Shared] instantiates it over [Store.Default]; {!Conc_shared}
    instantiates it over a base of [Smc.Cell]s and explores it, so the
    model checks run the protocol that ships. Locks created inside an
    [Smc] exploration take {!Rwlock}'s exploration path.

    bin/lint.exe resolves the protocol's [Base.f] calls by module name,
    so an instantiation names its base module [Base]. *)

(** What the protocol needs of the store below it. Every call runs
    under the stack lock (read mode for [get], [list] and [scan]). *)
module type BASE = sig
  type t
  type error

  (** What {!Make.dirty_reboot} hands through to {!dirty_reboot}. *)
  type reboot

  val get : t -> key:string -> (string option, error) result
  val put_batch : t -> (string * string) list -> (unit, error) result
  val delete_batch : t -> string list -> (unit, error) result
  val list : t -> (string list, error) result
  val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, error) result
  val compact : t -> (unit, error) result
  val reclaim : t -> (bool, error) result
  val clean_shutdown : t -> (unit, error) result
  val dirty_reboot : t -> reboot -> (unit, error) result
end

module Make (Base : BASE) : sig
  type t

  (** [create ?shards ?flush_chunk ?on_stack_hold ?on_drained base] —
      [shards] staging shards (default 8) over [base]. [flush_chunk]
      (default 32) bounds the drained ops a flush applies per stack
      write hold; [0] is the coarse protocol, one hold across the whole
      drain. [on_stack_hold] runs at the start of every such hold and
      [on_drained n] after a shard's [n] staged entries reached the base
      (both default to nothing): the shared store's counters. *)
  val create :
    ?shards:int ->
    ?flush_chunk:int ->
    ?on_stack_hold:(unit -> unit) ->
    ?on_drained:(int -> unit) ->
    Base.t ->
    t

  val base : t -> Base.t
  val shards : t -> int

  (** The shard [key] stages into. *)
  val shard_of : t -> string -> int

  (** Staged entries across all shards (every shard read lock). *)
  val staged_count : t -> int

  (** Staged entries of shard [i], under its read lock: the maintenance
      plane's emptiness probe. *)
  val staged_in : t -> int -> int

  (** [stage t ~key v] stages a put ([Some]) or a tombstone ([None])
      under the key's shard write lock: a mutation's linearization
      point. *)
  val stage : t -> key:string -> string option -> unit

  (** The staged value, or the base's, read under the key's shard read
      lock held across both, so a flush of the shard cannot slide in
      between. *)
  val get :
    t -> key:string -> [ `Staged of string option | `Base of (string option, Base.error) result ]

  (** Stage each entry of a batch: one shard write lock at a time, shards
      in ascending index order, the batch's order kept within a shard. *)
  val stage_batch : t -> (string * string option) list -> unit

  (** {2 Maintenance plane}

      Each takes the maint write lock first. A flush drains a shard under
      its write lock, applying puts then deletes to the base (each in
      descending key order) before it clears the staging; on an error
      the staging of the failing shard and of the shards after it stays,
      so an acked mutation is never dropped. *)

  (** Drain every shard, ascending. Returns the entries drained. *)
  val flush : t -> (int, Base.error) result

  (** Drain shard [i]. Raises [Invalid_argument] when [i] is out of
      range. *)
  val flush_shard : t -> int -> (int, Base.error) result

  (** [Base.compact] under the maint and stack write locks. *)
  val compact : t -> (unit, Base.error) result

  (** [Base.reclaim] under the maint and stack write locks. *)
  val reclaim : t -> (bool, Base.error) result

  (** Drain every shard, then [Base.clean_shutdown] under the stack
      write lock. *)
  val clean_shutdown : t -> (unit, Base.error) result

  (** Drop every staged entry under all shard write locks (ascending),
      then [Base.dirty_reboot] under the stack write lock. *)
  val dirty_reboot : t -> Base.reboot -> (unit, Base.error) result

  (** {2 Listings}

      The staged overlay (puts added, tombstones removed) over the
      base's listing, under every shard read lock (ascending) around the
      stack read lock, so the two are mutually consistent. *)

  val list : t -> (string list, Base.error) result
  val scan : t -> ?lo:string -> ?hi:string -> unit -> ((string * string) list, Base.error) result
end
