(** Generation-stamped record logs over a pair of reserved extents.

    ShardStore keeps two kinds of small, frequently-rewritten system state:
    the superblock (soft write pointers, extent ownership) and the LSM-tree
    metadata (locators of the chunks currently storing the tree). Both are
    persisted the same way: append CRC-framed, generation-numbered records
    to a reserved extent; when it fills, reset the {e other} reserved
    extent (which holds only older generations) and continue there. A
    writer learns whether its record {e opens} an extent, so a record may
    carry only what changed since the previous record on the same extent:
    the superblock writes a checkpoint first and deltas after it, the LSM
    metadata writes whole records throughout. Recovery scans both extents
    and returns the chain of valid records on the one holding the newest
    generation.

    Writes go through {!Io_sched}, so records participate in soft-updates
    ordering: a record's input dependency chains to the previous record
    (generations become durable in order) plus whatever the caller passes
    (e.g. the evacuation and index writes an ownership transition depends
    on). *)

type t

type error =
  | Sched of Io_sched.error
  | Record_too_large of { size : int; capacity : int }

val pp_error : Format.formatter -> error -> unit

(** See {!Io_sched.error_class}; [Record_too_large] is [`Resource]. *)
val error_class : error -> [ `Transient | `Permanent | `Resource | `Fatal ]

(** [create ?obs sched ~extents:(a, b) ~name] manages records on reserved
    extents [a] and [b]. [name] tags errors, debug output and the roll's
    metric series (counters [logroll.append] / [logroll.switch] /
    [logroll.recover] carry a [("roll", name)] label); metrics land in
    [obs], defaulting to the scheduler's registry. *)
val create : ?obs:Obs.t -> Io_sched.t -> extents:int * int -> name:string -> t

(** Generation of the most recently appended record; 0 before any. *)
val generation : t -> int

(** Dependency of the most recently appended record ({!Dep.trivial} before
    any). New records chain to it automatically. *)
val last_record_dep : t -> Dep.t

(** [append t ~payload ~input] writes the next record, whose payload is
    [payload ~opens]. [opens] is true when the record is the first on its
    extent: the active extent is empty, a torn tail forces a switch, or the
    record asked for with [~opens:false] does not fit the rest of the
    active extent (the roll then switches and asks again). The record's
    input dependency is [input] combined with the chain to the previous
    record. Returns the record's dependency. *)
val append : t -> payload:(opens:bool -> string) -> input:Dep.t -> (Dep.t, error) result

(** [recover t] scans both extents and returns the valid records of the
    extent holding the newest generation, oldest first, as [(generation,
    payload)]: the chain from the record that opened the extent up to the
    first torn or corrupt one. [[]] if no valid record exists. Re-arms the
    writer so subsequent {!append}s continue after the newest record. *)
val recover : t -> (int * string) list

(** {2 Record format} *)

(** [encode ~gen ~payload] is one record: the magic ["LR"], the generation
    as a u64, the length-prefixed payload and a CRC over the generation
    and payload bytes. *)
val encode : gen:int -> payload:string -> string

(** Bytes a record adds to its payload: [String.length (encode ~gen
    ~payload) = String.length payload + overhead]. *)
val overhead : int

(** [decode_record image ~off] decodes the record at [off], returning its
    generation, payload and the offset just past it. The CRC is computed
    over the bytes the record occupies in [image]. Total: a torn, corrupt
    or truncated record yields [Error]. *)
val decode_record : string -> off:int -> (int * string * int, Util.Codec.error) result

(** Number of record appends that triggered an extent switch (stats). *)
val switches : t -> int
