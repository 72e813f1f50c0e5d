(** Where the kernel's services run (DESIGN D22, D23).

    This module alone places the message kernel's block-cache shards,
    vnodes and name caches; the run's policy places every other fiber
    (clients, the disk driver, the cylinder-group allocators and the
    dispatchers).  A machine of more than 16 cores has one name cache
    per 16-core group.  On a mesh whose sides are multiples of 4, group
    [g] is the [g]-th 4×4 tile in row-major order, and its cache runs
    on whichever of the tile's four middle cores is farthest from the
    chip's centre (the lowest id on a tie): every member is at most 4
    hops from it, and the caches stay off the centre.  On every other
    machine group [g] is the [g]-th run of 16 consecutive core ids, and
    its cache runs on the run's first core.  Every other core is
    ranked by distance from the centre of the chip
    ({!Chorus_machine.Machine.centre_out}), and a rank is taken modulo
    the number of those cores: block-cache shard [i] runs at rank
    [2i], and vnode [v] (the root is 0) at rank [2v+1] while
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
(** [group t core] is the group [core] belongs to: its 4×4 tile, or
    its run of 16 ids. *)

val cache : t -> int -> int
(** [cache t g] is the core of group [g]'s name cache: a middle core
    of its tile, or the first core of its run. *)

val shard : t -> int -> int
(** [shard t i] is the core of block-cache shard [i]. *)

val vnode : t -> shards:int -> int -> int
(** [vnode t ~shards v] is the core of the vnode with id [v + 1] of a
    mount whose block cache has [shards] shards. *)
