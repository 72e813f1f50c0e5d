(** Boot and wiring for the message-passing OS.

    [boot] starts the file server on the current simulated machine and
    nothing else: the single-fiber disk driver, the block-cache shard
    services, the cylinder-group allocators and the vnode-tree VFS (its
    root vnode and, above 16 cores, one name cache per 16-core group).
    Every component is an autonomous daemon fiber reachable only
    through channels; there is not a single lock in this kernel.  A
    program that wants another service, such as {!Console}, starts it
    itself.

    System calls are messages: a client either holds plumbed service
    endpoints directly (aggressive distribution of the "outer
    interface") or goes through dispatcher fibers (conservative) —
    see {!Msgvfs.config}. *)

type config = {
  fs : Msgvfs.config;
  bcache_shards : int;
  cgroups : int;
}

val default_config : config
(** 8 cache shards, 8 cylinder groups.  Every boot has a 65,536-block
    disk and a 1,024-block cache. *)

type t = {
  dev : Blockdev.t;
  bcache : Bcache.t;
  alloc : Cgalloc.t;
  vfs : Msgvfs.sys;
}

val boot : config -> t
(** Call from inside {!Chorus.Runtime.run}. *)

val fs_client : t -> Msgvfs.t
(** A fresh per-application filesystem view. *)

val sync : t -> unit
(** Flush every dirty cached block to the disk driver (call before
    "powering off" a simulation that cares about the disk image). *)

val service_fibers : t -> int
(** How many kernel service fibers are currently alive (the disk
    driver + shards + allocators + vnodes + name caches). *)
