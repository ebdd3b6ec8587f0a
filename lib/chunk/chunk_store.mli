(** The chunk store: PUT/GET of chunks onto extents, and chunk reclamation
    (paper section 2.1).

    Chunks are framed ({!Chunk_format}), padded to page alignment, and
    appended to the currently open data extent; new extents are taken from
    the superblock's recorded-[Free] pool (staging a reset first when the
    extent still carries pre-crash bytes). A put's dependency is the append
    combined with the covering superblock record promise, per Fig. 2.

    Reclamation scans an extent page boundary by page boundary, decoding
    frames; live chunks (per the caller's reverse lookup) are evacuated to
    other extents and their references updated; the extent is then reset
    with an input dependency covering every evacuation {e and} every
    reference update, which is the crash-consistent ordering of section 2.1.

    Fault sites: #1 (scan off-by-one near page-size frames), #5 (scan
    aborts on transient read error but still resets), #7 (reset dependency
    omits the reference updates), #10 (scan skips by frame length, trusting
    UUID framing without the CRC). *)

type t

type error =
  | No_space  (** no extent can hold the chunk; reclaim and retry *)
  | Io of Io_sched.error
  | Corrupt of Util.Codec.error
  | Stale_locator of Locator.t  (** locator epoch does not match the extent *)
  | Superblock of Superblock.error

val pp_error : Format.formatter -> error -> unit

(** See {!Io_sched.error_class}; [No_space] is [`Resource], corruption and
    stale locators are [`Fatal]. *)
val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

(** [create ?obs sched ~cache ~superblock ~rng] — metrics ([chunk.put],
    [chunk.get], [chunk.reclamation], coverage-linked [chunk.get.*] and
    [reclaim.*]) land in [obs], defaulting to the scheduler's registry. *)
val create :
  ?obs:Obs.t -> Io_sched.t -> cache:Cache.t -> superblock:Superblock.t -> rng:Util.Rng.t -> t

val sched : t -> Io_sched.t
val obs : t -> Obs.t

(** [set_uuid_bias t p] — with probability [p], freshly generated chunk
    UUIDs end in the frame magic bytes. Test harnesses use this to bias
    toward the corner case of issue #10 (paper section 4.2 argues for
    exactly this kind of quantitatively justified bias). *)
val set_uuid_bias : t -> float -> unit

(** [put t ~owner ~payload] stores one chunk: a one-item {!put_batch}.
    [input] (default trivial) is the soft-updates input dependency of the
    append — e.g. an index run chunk depends on the value chunks its
    entries reference. *)
val put :
  ?input:Dep.t ->
  t ->
  owner:Chunk_format.owner ->
  payload:string ->
  (Locator.t * Dep.t, error) result

(** [put_batch t ~items] stores N chunks with group commit: frames are
    packed into per-extent groups, each group staged as {e one} coalesced
    append covered by {e one} superblock record promise, and every chunk of
    a group shares the merged write's dependency. Results are in item
    order. On a mid-batch error the already-staged groups are unreferenced
    garbage (their locators were never returned to an index), exactly like
    an interrupted sequential put; reclamation collects them. Index-run
    chunks may spend the free-extent reserve kept for reclamation; shard
    chunks may not. Observability: [chunk.batch_group] counts groups
    (one-chunk groups of {!put} included) and [chunk.batch_group_chunks]
    records chunks per group. *)
val put_batch :
  ?input:Dep.t ->
  t ->
  items:(Chunk_format.owner * string) list ->
  ((Locator.t * Dep.t) list, error) result

(** [get t locator] reads a chunk back, validating epoch, framing and CRC.
    Never returns wrong data: corruption yields [Corrupt]. *)
val get : t -> Locator.t -> (Chunk_format.chunk, error) result

(** [reclaim t ~extent ~index_basis ~classify ~relocate] — see module doc.
    [classify] is the reverse lookup; [relocate] must update the owner's
    reference and return a dependency that persists when the updated
    reference does. [index_basis] must cover the index state [classify]
    consults: a chunk judged dead may only be destroyed once that judgement
    is durable. Returns the reset's dependency. *)
val reclaim :
  t ->
  extent:int ->
  index_basis:Dep.t ->
  classify:(Chunk_format.owner -> Locator.t -> [ `Live | `Dead ]) ->
  relocate:
    (Chunk_format.owner -> old_loc:Locator.t -> new_loc:Locator.t -> new_dep:Dep.t -> Dep.t) ->
  (Dep.t, error) result

(** [close t ~in_use] audits for leaked extents at shutdown: data extents
    carrying bytes ([soft_ptr > 0]) that are neither the open append
    target nor reachable per [in_use extent]. Each leak is returned as
    [(extent, written_pages)], counted under [chunk.leaked_extent], and —
    when the underlying disk has a {!Sanitize.Page_shadow} attached —
    reported to it as an [Extent_leak]. Forgets the open extent. *)
val close : t -> in_use:(int -> bool) -> (int * int) list

(** Forget the open extent (used on reboot: volatile allocation state). *)
val close_open_extent : t -> unit

