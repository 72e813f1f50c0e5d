(** Block cache as a set of autonomous shard fibers.

    Where the baseline shards a lock, the message kernel shards the
    {e service}: each shard fiber privately owns the cache state for
    the blocks hashed to it, so there is no lock at all — mutual
    exclusion is the fiber's sequential message loop.  Shards talk to
    the disk driver directly; a missing block blocks only its own
    shard. *)

type t

val start : ?shards:int -> ?capacity:int -> dev:Blockdev.t -> unit -> t
(** [start ~dev ()] spawns the shard fibers (default 8 shards, 1024
    blocks total capacity, LRU per shard, write-back on eviction),
    placed on cores by the run's policy. *)

val get_range : t -> int -> off:int -> len:int -> string
(** [get_range t block ~off ~len] returns just the requested byte
    range (cache fill from disk on miss) — the reply message is sized
    by [len], not by the block.  This is what makes fine-grained reads
    cheap for the vnode fibers: only the bytes asked for cross the
    interconnect.  Raises {!Blockdev.Io_error} when the fill gives up
    (see {!read_retries}). *)

val put : t -> int -> off:int -> string -> unit
(** [put t block ~off data] writes [data] into the cached block at
    byte offset [off], marking it dirty (read-modify-write of the
    block on a partial overwrite).  Raises {!Blockdev.Io_error} like
    {!get_range} when the block must first be read in. *)

val zero : t -> int -> unit
(** Reset a freed block's cached contents to zeroes (used on
    allocation so stale data never leaks between files). *)

val flush : t -> unit
(** Write all dirty blocks back to the device. *)

val hits : t -> int

val misses : t -> int

val read_retries : t -> int
(** Transient {!Blockdev} read faults absorbed by the refill path:
    each fault costs one bounded exponential-backoff retry (up to 10
    attempts, 2k–32k cycle sleeps).  Only the faulted shard stalls
    while it retries.  After the 10th failed attempt the shard gives
    up on that request alone: {!get_range} or {!put} raises
    {!Blockdev.Io_error} in the caller's fiber, and the shard keeps
    serving. *)

val shards : t -> int
