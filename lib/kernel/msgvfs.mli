(** The message-passing VFS: every vnode is its own fiber.

    Paper Section 4: "the file system could be structured so that every
    vnode is its own thread, which communicates with other threads that
    administer cylinder groups and free-maps and so forth."  Here:

    - every file and directory is an autonomous fiber owning its state
      (no inode locks — the request loop serializes);
    - directory entries hold the {e channel} to the child vnode, so a
      lookup returns an endpoint and path resolution is a chain of
      messages down the tree;
    - on a machine of more than 16 cores, each 16-core group (a 4×4
      tile of a mesh whose sides are multiples of 4, else a run of 16
      core ids; {!Place}) has a name-cache fiber, and every walk is one
      message to the cache of the caller's group.  The cache copies
      the names of each directory its group walks through, on the
      first such walk, and answers the whole walk from its copies, or
      as far as they go, after which the walker sends direct
      [Lookup]s.  A copy never
      learns a new name.  Before a directory drops a name, it
      invalidates the name at every group whose copy holds it and
      waits for the acks, so a walk made after the removal returns
      never finds it (DESIGN D19);
    - data blocks live in the {!Bcache} shard services, storage comes
      from the {!Cgalloc} group fibers, and everything bottoms out in
      the single-fiber {!Blockdev} driver;
    - [open] returns the file vnode's endpoint to the client (a
      channel sent through a channel — the paper's "plumbing"), after
      which reads and writes go {e directly} from client to vnode;
    - a read of a warm file whose bytes lie in one block, and a write
      that overwrites bytes of one block without extending the file,
      go one step further: the vnode hands the request to the block's
      {!Bcache} shard with the client's reply channel, and the data
      comes back from the shard (three messages, and the vnode's loop
      is not held across the cache trip; DESIGN D18).  Reads across
      blocks, writes that allocate or extend, and the hydration of a
      projected file are served in the vnode.  A cache fill that gives
      up is [Eio] on either path;
    - the vnode holds these forwards and sends them, one message per
      shard, when its inbox is empty after a request and before any
      request it serves itself.  So the forwards that queued while it
      was busy reach a shard in one message, an idle vnode sends each
      one at once, and no cache call or free of the vnode's own
      overtakes a held forward (DESIGN D20).  The counters
      [msgvfs/batch.messages] and [msgvfs/batch.forwards] count the
      messages that carry two or more forwards and the forwards they
      carry; a run registers them with its first such message;
    - the kernel, not the run's policy, decides where the vnodes and the
      name caches run ({!Place}, DESIGN D22, D23): a name cache in the
      middle of its tile (on the first core of a run of ids), the
      vnodes outward from the centre of the chip, interleaved with the
      {!Bcache} shards while there are shards, one per core.  The
      dispatchers are placed by the run's policy.

    With [plumbing = false] every operation is instead routed through
    dispatcher fibers, the ablation measured in E4.  The request a
    dispatcher receives is the system call itself, a closure it runs in
    its own fiber (path walk, vnode messages and all); the request and
    its empty reply are two words each.

    Dispatch "via a common interface ... conventionally done with
    tables of function pointers, is done in this environment by
    sending to a channel using a common message protocol" — the [vreq]
    type is that protocol, understood by both file and directory
    vnodes.

    Semantic note: unlinking a vnode retires its fiber and closes its
    endpoint; operations through surviving open handles then fail
    [Ebadf] (simpler than POSIX's keep-alive-while-open).

    Implements {!Chorus_fsspec.Fsspec.S}. *)

type config = {
  plumbing : bool;  (** D3: open returns a direct vnode channel *)
  dispatchers : int;  (** syscall-entry fibers when not plumbing *)
}

val default_config : config
(** plumbing on, 4 dispatchers. *)

type sys

val mount : config -> bcache:Bcache.t -> alloc:Cgalloc.t -> sys
(** Spawn the root directory vnode and the name caches (see {!caches})
    where {!Place} puts them, and the dispatchers where the run's
    policy does.  Every vnode, cache and dispatcher inbox is unbounded
    (backpressure). *)

type t

val client : sys -> t

include Chorus_fsspec.Fsspec.S with type t := t

(** {1 Projected namespaces}

    A projection grafts a {e virtual} directory tree into the mount.
    Its vnodes are the ordinary file and directory vnodes, each with a
    lazy source.  A projected directory enumerates through
    [proj_entries] on its first request.  A projected file is a
    {e placeholder}: a file vnode that starts cold, with its declared
    size and no blocks.  Its contents arrive through [proj_fetch] on
    the first read or write (attach-on-hydrate: the fetched bytes are
    written into {!Bcache} blocks and the file is warm from then on).
    Both closures may fail with [Eio] (the provider is remote); a
    failed hydration leaves the placeholder cold and retryable, and
    because the vnode fiber serializes its requests a reader can never
    observe a half-hydrated file.  Local [Make] entries merge
    alongside projected names.  Projected names refuse
    [Remove]/[Detach] with [Einval] (the remote namespace is
    authoritative), and [Make]/[Attach] over any existing name,
    projected or local, fail with [Eexist].  A projected directory
    never retires. *)

type projection = {
  proj_entries :
    string ->
    ( (string * Chorus_fsspec.Fsspec.kind * int) list,
      Chorus_fsspec.Fsspec.err )
    result;
      (** list a directory by projection-relative path ([""] = the
          projection root) as [(name, kind, size)].  Errors are not
          cached: the next operation retries. *)
  proj_fetch : string -> (string, Chorus_fsspec.Fsspec.err) result;
      (** full contents of a projected file, by relative path. *)
}

val project :
  sys -> at:string -> projection -> (unit, Chorus_fsspec.Fsspec.err) result
(** Attach the projection root as directory [at] (its parent must
    exist; the name must be free). *)

(** {1 Handles}

    A resolved vnode endpoint, independent of any client fd table —
    what a name cache holds so a warm open skips the path walk. *)

type handle

val resolve : t -> string -> (handle, Chorus_fsspec.Fsspec.err) result
(** Walk [path] to a file vnode (the open path without fd
    installation). *)

val open_handle : t -> handle -> Chorus_fsspec.Fsspec.fd
(** Install a resolved handle in this client's fd table. *)

(** {1 Introspection} *)

val vnodes_spawned : sys -> int
(** Total vnode fibers ever created under this mount. *)

val live_vnodes : sys -> int

val caches : sys -> int
(** Name-cache fibers: one per 16-core group on a machine of more than
    16 cores, none on a smaller one. *)

val placeholders_live : sys -> int
(** Projected file vnodes not yet hydrated (and not retired). *)

val hydrations : sys -> int
(** Placeholder fills completed successfully. *)

val hydration_failures : sys -> int
(** [proj_fetch] errors surfaced to readers. *)
