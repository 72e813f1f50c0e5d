(** Where the kernel's services run (DESIGN D22).

    This module alone places the message kernel's block-cache shards,
    vnodes and name caches; the run's policy places every other fiber
    (clients, the disk and console fibers, allocators, hubs,
    dispatchers).  A name cache runs on its 16-core group's first
    core.  Every other core is ranked by distance from the centre of
    the chip ({!Chorus_machine.Machine.centre_out}), and a rank is
    taken modulo the number of those cores: block-cache shard [i] runs
    at rank [2i], and vnode [v] (the root is 0) at rank [2v+1] while
    [v < shards], at rank [shards + v] after that.  So the shards and
    the first vnodes alternate outward from the centre, one per
    core. *)

type t

val current : unit -> t
(** The placement for the running engine's machine, in O(cores). *)

val groups : t -> int
(** How many core groups have a name cache: one per 16 cores on a
    machine of more than 16 cores, none otherwise. *)

val group : t -> int -> int
(** [group t core] is the group [core] belongs to. *)

val cache : t -> int -> int
(** [cache t g] is the core of group [g]'s name cache, the group's
    first core. *)

val shard : t -> int -> int
(** [shard t i] is the core of block-cache shard [i]. *)

val vnode : t -> shards:int -> int -> int
(** [vnode t ~shards v] is the core of the vnode with id [v + 1] of a
    mount whose block cache has [shards] shards. *)
