(** Page-granular LRU buffer cache over scheduler reads.

    Reads assemble from cached pages, fetching misses through
    {!Io_sched.read} (where injected IO failures fire — cache hits
    deliberately bypass injection, as a real cache bypasses the disk).
    Appends need no invalidation: extents are append-only, so a cached
    page is a prefix of the current content, and a read longer than a
    cached partial page re-fetches it (the stale copy leaves the cache
    first, so a failed re-fetch leaves the page uncached). Mutators must
    call {!note_reset} after staging an extent reset.

    {b Replacement.} Strict LRU over pages. A page is keyed by one int,
    [extent * pages_per_extent + page], in an int-specialised table whose
    entries are the nodes of an intrusive doubly linked list in recency
    order: a hit unlinks its page and relinks it at the most recently used
    end, an insert links a new page there, and the victim is the node at
    the least recently used end. A hit, an insert and an eviction each
    cost O(1); {!note_reset} costs one table probe per page of the extent,
    and {!invalidate_all} sorts the resident keys once. A read is
    assembled into one fresh buffer with one blit per page it spans.

    Fault site #2: the injected defect skips invalidation on reset, so a
    recycled extent can serve stale pre-reset pages from the cache.

    {b Concurrency.} The cache is safe to share across domains: every
    public operation runs under an internal writer-preferring
    {!Conc.Rwlock}, held in write mode even for {!read} because the read
    path mutates (LRU order, miss-path inserts, evictions). In the
    store's global lock order the cache lock is innermost
    (shard < stack < cache) and acquires nothing while held.

    {b Entry lifecycle.} Every per-page mutation is audited against the
    SimpleCacheSM state machine ({!Conc.Cache_sm}). A page is [Clean]
    exactly when it is resident, [Reading] only inside a miss's fetch,
    and [Empty] otherwise: misses claim the entry ([Empty -> Reading]),
    publish on success ([Reading -> Clean]) or release on failure
    ([Reading -> Empty]); evictions, invalidations and a stale partial
    page dropped before its re-fetch are [Clean -> Empty]; write-allocate
    fills are [Empty -> Clean]. Writes invalidate rather than dirty an
    entry, so these are all the machine's edges. {!transitions_checked} /
    {!transition_violations} expose the audit. *)

type t

(** [create ?capacity_pages ?write_allocate sched] — [write_allocate]
    (default false) inserts written pages into the cache at write time, so
    reads of recently written data always hit. The section 8.3 experiment
    uses it: with a large write-allocating cache the miss path is
    unreachable by the test harness. *)
val create : ?capacity_pages:int -> ?write_allocate:bool -> ?obs:Obs.t -> Io_sched.t -> t

(** True when the cache populates itself on writes. *)
val write_allocate : t -> bool

(** The registry receiving [cache.hit] / [cache.miss] / [cache.eviction] /
    [cache.fill] counters and the [cache.resident_pages] gauge; defaults to
    the scheduler's. *)
val obs : t -> Obs.t

(** [fill t ~extent ~off data] — write-allocate path: insert the written
    bytes' pages. No-op unless [write_allocate]. *)
val fill : t -> extent:int -> off:int -> string -> unit

(** [read t ~extent ~off ~len] — semantics of {!Io_sched.read} plus
    caching. *)
val read : t -> extent:int -> off:int -> len:int -> (string, Io_sched.error) result

(** [note_reset t ~extent] drops every cached page of the extent. *)
val note_reset : t -> extent:int -> unit

(** Drop everything (used on reboot). *)
val invalidate_all : t -> unit

(** The resident pages as [(extent, page)] pairs, least recently used
    first: the order in which they would be evicted. *)
val resident : t -> (int * int) list

(** {2 Lifecycle audit} *)

(** Entry transitions taken (and checked against {!Conc.Cache_sm.legal})
    since creation — the coverage evidence for {!transition_violations}
    being empty. *)
val transitions_checked : t -> int

(** Illegal transitions observed; must be empty. *)
val transition_violations : t -> Conc.Cache_sm.violation list
