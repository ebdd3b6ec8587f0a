(** Generation-stamped record logs over a pair of reserved extents.

    ShardStore keeps two kinds of small, frequently-rewritten system state:
    the superblock (soft write pointers, extent ownership) and the LSM-tree
    metadata (locators of the chunks currently storing the tree). Both are
    persisted the same way: append CRC-framed, generation-numbered snapshot
    records to a reserved extent; when it fills, reset the {e other}
    reserved extent (which holds only older generations) and continue
    there. Recovery scans both extents and adopts the newest decodable
    record.

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

(** [append t ~payload ~input] writes the next record. The record's input
    dependency is [input] combined with the chain to the previous record.
    Returns the record's dependency. *)
val append : t -> payload:string -> input:Dep.t -> (Dep.t, error) result

(** [recover t] scans both extents and returns the newest valid record's
    payload with its generation, or [None] if no valid record exists.
    Re-arms the writer so subsequent {!append}s continue after it. *)
val recover : t -> (int * string) option

(** {2 Record format} *)

(** [encode ~gen ~payload] is one record: the magic ["LR"], the generation
    as a u64, the length-prefixed payload and a CRC over the generation
    and payload bytes. *)
val encode : gen:int -> payload:string -> string

(** [decode_record image ~off] decodes the record at [off], returning its
    generation, payload and the offset just past it. The CRC is computed
    over the bytes the record occupies in [image]. Total: a torn, corrupt
    or truncated record yields [Error]. *)
val decode_record : string -> off:int -> (int * string * int, Util.Codec.error) result

(** Number of record appends that triggered an extent switch (stats). *)
val switches : t -> int
