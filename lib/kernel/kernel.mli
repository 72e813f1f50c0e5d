(** Boot and wiring for the message-passing OS.

    [boot] assembles the paper's architecture on the current simulated
    machine: the single-fiber disk and console drivers, the block-cache
    shard services, the cylinder-group allocators, the vnode-tree VFS,
    the notification hub, and the process table.  Every component is an
    autonomous daemon fiber reachable only through channels; there is
    not a single lock in this kernel.

    System calls are messages: a client either holds plumbed service
    endpoints directly (aggressive distribution of the "outer
    interface") or goes through dispatcher fibers (conservative) —
    see {!Msgvfs.config}. *)

type config = {
  fs : Msgvfs.config;
  bcache_shards : int;
  cache_blocks : int;
  cgroups : int;
  nblocks : int;
  disk : Chorus_machine.Diskmodel.t;
}

val default_config : config

type t = {
  dev : Blockdev.t;
  bcache : Bcache.t;
  alloc : Cgalloc.t;
  vfs : Msgvfs.sys;
  notify : Notify.t;
  proc : Proc.t;
  console : Console.t;
}

val boot : config -> t
(** Call from inside {!Chorus.Runtime.run}. *)

val fs_client : t -> Msgvfs.t
(** A fresh per-application filesystem view. *)

val sync : t -> unit
(** Flush every dirty cached block to the disk driver (call before
    "powering off" a simulation that cares about the disk image). *)

val service_fibers : t -> int
(** How many kernel service fibers are currently alive (drivers +
    shards + allocators + vnodes + root replicas + hubs). *)
