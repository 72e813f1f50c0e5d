(** Cylinder-group block allocators.

    Paper Section 4: the filesystem "communicates with other threads
    that administer cylinder groups and free-maps and so forth".  The
    disk's block range is split into groups, each owned by one
    allocator fiber with a private free list — allocation pressure
    spreads over the groups instead of serializing on one free-map
    lock (contrast {!Chorus_baseline.Shvfs}'s [freemap_lock]). *)

type t

val start : ?groups:int -> nblocks:int -> unit -> t
(** Default 8 groups over [nblocks] blocks. *)

val alloc : t -> hint:int -> int option
(** [alloc t ~hint] requests a block, preferring the group [hint mod
    groups] and falling over to the others; [None] when the disk is
    full. *)

val free : t -> int -> unit

val allocated : t -> int
(** Blocks currently allocated. *)

val groups : t -> int
