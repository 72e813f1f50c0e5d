(** The incumbent: a shared-memory, lock-based VFS (macrokernel
    style).

    Every operation traps into the kernel and walks shared structures
    under locks: a writer-preferring rwlock on the global name cache, a
    global inode-table lock for allocation, per-inode locks, sharded
    buffer-cache locks (held across miss I/O, as in classic BSD), and a
    global free-map lock.  All of these are {!Lock}/{!Rwlock} values,
    so the coherence traffic and convoys that the paper claims will
    strangle this design at hundreds of cores are measured, not
    asserted.

    Implements {!Chorus_fsspec.Fsspec.S}; semantics are identical to
    the message kernel's VFS. *)

type config = {
  ninodes : int;
  nblocks : int;
  cache_blocks : int;  (** buffer-cache capacity *)
  shards : int;  (** buffer-cache lock sharding *)
  trap_per_op : bool;  (** charge mode switches around each call *)
}

val default_config : config
(** 4096 inodes, 65536 blocks, 1024 cached, 8 shards, traps on. *)

type sys
(** The mounted filesystem (shared kernel state). *)

val make : config -> sys
(** Call from inside a running fiber (it allocates simulated shared
    state). *)

type t
(** One client's view (its fd table). *)

val client : sys -> t

include Chorus_fsspec.Fsspec.S with type t := t
