(** The projected filesystem: a lazily-hydrated remote namespace
    mounted into {!Chorus_kernel.Msgvfs}.

    VFSForGit's model on the paper's substrate: the mount point is a
    projected directory tree whose entries come from a remote
    {!Provider} node (over {!Chorus_net.Stack.call}, so retransmission
    and dedup are the net stack's problem) and whose files are
    placeholder vnodes that hydrate on first read.  Two service-plane
    pieces sit between the vnodes and the wire:

    - the {e hydration endpoint} — a bounded request/reply
      {!Chorus_svc.Svc.t} ([projfs.hydrate], [workers] serving fibers)
      that every placeholder fill goes through, so a hydration storm
      meets an explicit overload policy ([`Block] backpressures the
      reading clients, [`Reject]/[`Shed_oldest] turn excess fills into
      clean [Eio] results) instead of an unbounded queue;
    - the {e prefetch endpoint} — a one-way bounded cast
      ([projfs.prefetch], capacity 64 under [`Shed_oldest]: a
      prefetch is advice, and stale advice sheds first) whose worker
      warms a path by opening it and reading one byte.

    The mount adds no client of its own: a projected path is opened,
    read and written through a {!Msgvfs.client} of the filesystem the
    mount grafts into, so it is walked, invalidated and, on a machine
    of more than 16 cores, cached by the kernel's group name caches
    like any other path (DESIGN D19).

    The {!Chorus.Inspect} provider [projfs/hydration] exposes
    hydration and prefetch state to the time-travel debugger; like
    every provider it is host-side only — zero observer effect.  E23
    measures cold vs warm opens and the hydration-storm sweep; the
    chaos [Projfs] scenario kills the provider mid-hydration and checks
    the placeholder invariants. *)

module Svc = Chorus_svc.Svc
module Fsspec = Chorus_fsspec.Fsspec
module Msgvfs = Chorus_kernel.Msgvfs

type t

val mount :
  ?hydration:Svc.config ->
  ?workers:int ->
  fs:Msgvfs.sys ->
  at:string ->
  stack:Chorus_net.Stack.t ->
  provider:int ->
  unit ->
  (t, Fsspec.err) result
(** Graft the projection at absolute path [at] (parent must exist) and
    spawn the hydration workers (default 4) and the prefetch worker.
    [hydration] bounds the hydration inbox (default unbounded
    backpressure); the prefetch inbox holds 64 requests under
    [`Shed_oldest].  Entries and contents always travel the wire, as
    {!Chorus_net.Stack.call}s with its default retransmission towards
    the provider at address [provider]. *)

(** {1 Prefetch} *)

val prefetch : t -> string -> unit
(** Queue a background hydration of absolute path [path] (fire and
    forget; under pressure the oldest queued prefetch sheds). *)

val prefetch_stats : t -> int * int * int
(** [(queued, completed, dropped)] — dropped counts sheds and failed
    warms. *)

(** {1 Introspection} *)

val hydrate_ep : t -> (string, (string, Fsspec.err) result) Svc.t
(** The hydration endpoint (queue metrics, overload counters). *)

val mount_path : t -> string

val fs_sys : t -> Msgvfs.sys
