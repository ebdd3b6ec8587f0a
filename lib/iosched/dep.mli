(** Soft-updates dependency graphs (paper section 2.2).

    Every mutating operation in ShardStore returns a [Dep.t]. The contract:
    a write is not issued to disk until its input dependency has persisted,
    and a returned dependency [is_persistent] only once every write it
    covers is durable. Dependencies compose with {!and_} and may include
    {!Promise}s — placeholders for writes that will only be scheduled later
    (e.g. the superblock record that will cover an append's soft-write-
    pointer update at the next cadence flush).

    The crash-consistency checker (paper section 5) is phrased entirely in
    terms of this type: {e persistence} (dep persistent before a crash ⇒
    data readable after) and {e forward progress} (clean shutdown ⇒ every
    dep persistent). *)

type status =
  | Pending  (** enqueued, not yet issued to the disk *)
  | Durable  (** issued; on the durable medium *)
  | Dropped  (** discarded by a crash before being issued *)
  | Failed  (** could not be issued (permanent IO failure) *)

type kind =
  | Append of { off : int; data : string }
  | Reset of { epoch : int }  (** the epoch the extent moves to *)

(** One scheduled disk write. The scheduler owns creation; the record is
    shared into dependency graphs so [is_persistent] needs no lookup. *)
type write = private {
  id : int;
  extent : int;
  kind : kind;
  mutable input : t;
      (** must persist before this write may be issued; dropped to
          {!trivial} once the write settles (any status but [Pending]), so
          a settled write no longer keeps the writes behind it alive *)
  mutable status : status;
}

and t

(** The already-persistent dependency. *)
val trivial : t

(** [and_ a b] persists when both [a] and [b] persist (paper's
    [dep1.and(dep2)]). *)
val and_ : t -> t -> t

(** [all deps] folds {!and_} over a list. *)
val all : t list -> t

(** [is_persistent t] — true once every covered write is durable and every
    covered promise is bound to a persistent dependency. *)
val is_persistent : t -> bool

(** {2 Blockers}

    A {e leaf} of a dependency is a write, or a promise that is not bound
    yet, reached from it through {!and_} and bound promises (never through
    a write's own input). {!is_persistent} is the conjunction over the
    leaves: it holds exactly when no leaf {e blocks}, a write blocking until
    it is durable and a promise until it is bound. *)

type blocker

(** [first_blocker t] is the first blocking leaf in {!is_persistent}'s own
    walk order, under its visited-promise rule; [None] exactly when
    [is_persistent t]. *)
val first_blocker : t -> blocker option

(** [blocks b] — [b] still blocks. While it does, every dependency [b] was
    found under is still not persistent, so a caller may cache [b] and
    answer "blocked" without walking the graph again. This is sound because
    [b] stays a leaf of that dependency: dependencies are immutable, a
    promise binds once, and the walk never descends into a write's input
    (the one field that changes, when the write settles). When [b] stops
    blocking, ask {!first_blocker} again. *)
val blocks : blocker -> bool

(** [has_failed t] — true if any covered write was dropped by a crash or
    failed permanently; such a dependency can never become persistent. *)
val has_failed : t -> bool

(** [persistent_under pred t] is {!is_persistent} generalised: a [Pending]
    write [w] counts as persistent when [pred w]. The crash-state generator
    uses it to ask "would this dependency hold if subset S persisted?". *)
val persistent_under : (write -> bool) -> t -> bool

(** Direct (non-transitive) writes covered by the dependency tree,
    including those reached through bound promises. *)
val writes : t -> write list

val pp : Format.formatter -> t -> unit

module Promise : sig
  (** A dependency on a write that has not been scheduled yet. Unbound
      promises are never persistent. *)

  type promise

  val create : unit -> promise
  val dep : promise -> t

  (** [bind p d] resolves the promise. Raises [Invalid_argument] if already
      bound. *)
  val bind : promise -> t -> unit

  val is_bound : promise -> bool
end

(** {2 Scheduler-internal constructors} *)

(** [make_write ~id ~extent ~kind ~input] — used by {!Io_sched} only. *)
val make_write : id:int -> extent:int -> kind:kind -> input:t -> write

val of_write : write -> t

(** [set_status w s] — a status other than [Pending] also drops [w]'s
    input. *)
val set_status : write -> status -> unit
