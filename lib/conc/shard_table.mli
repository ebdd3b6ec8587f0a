(** Hash-sharded mutable table with one {!Rwlock} per shard — the
    staging structure of the {!Staging} protocol behind [Store.Shared].

    Keys hash to a shard ([Hashtbl.hash key mod shards]); each shard is a
    plain [Hashtbl] protected by its own writer-preferring {!Rwlock}
    (named ["shard"] inside an {!Smc} exploration), so operations on
    different shards never contend. The race-freedom argument is
    structural: a shard's table is touched only inside [with_*] sections
    on that shard's lock, and whole-table sections acquire every shard
    lock in ascending index order — the global lock order, which makes
    cross-shard deadlock impossible by construction. {!Conc_shared}
    explores the protocol that uses this table, locks included. *)

type 'a t

(** [create ?shards ()] — [shards] defaults to 8; must be >= 1. *)
val create : ?shards:int -> unit -> 'a t

val shards : 'a t -> int

(** The shard [key] hashes to (exposed for tests and introspection). *)
val shard_of : 'a t -> string -> int

(** [with_key_read t key f] — run [f] on [key]'s shard table under that
    shard's read lock. [f] must not mutate the table. *)
val with_key_read : 'a t -> string -> ((string, 'a) Hashtbl.t -> 'b) -> 'b

(** [with_key_write t key f] — same shard table under the write lock. *)
val with_key_write : 'a t -> string -> ((string, 'a) Hashtbl.t -> 'b) -> 'b

(** [with_shard_read t i f] — shard [i] by index under the read lock
    ([f] must not mutate). The maintenance plane's cheap emptiness probe:
    a reader-side peek never blocks other readers of the shard. *)
val with_shard_read : 'a t -> int -> ((string, 'a) Hashtbl.t -> 'b) -> 'b

(** [with_shard_write t i f] — shard [i] by index, write-locked. *)
val with_shard_write : 'a t -> int -> ((string, 'a) Hashtbl.t -> 'b) -> 'b

(** Whole-table sections: every shard lock acquired in ascending index
    order, released descending. While one is active no per-key section
    can run anywhere in the table. *)
val with_all_read : 'a t -> ((string, 'a) Hashtbl.t array -> 'b) -> 'b

val with_all_write : 'a t -> ((string, 'a) Hashtbl.t array -> 'b) -> 'b

(** Total bindings across shards (takes all read locks). *)
val size : 'a t -> int
