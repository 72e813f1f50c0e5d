(** Consistent-hash sharding of the key space over cluster nodes.

    The key space is split into a fixed number of shards by hash; each
    shard is owned by a replica group of [replication] distinct nodes
    chosen by walking a consistent-hash ring of virtual node points.
    Both mappings are pure functions of the node list, so every node
    and client derives the identical map without coordination, and
    adding a node moves only the shards whose ring neighbourhood it
    lands in.

    The map is versioned and wire-encodable so smart clients can
    discover it from any node ({!Client} fetches it at first use). *)

type t

val build : nshards:int -> replication:int -> int list -> t
(** [build ~nshards ~replication nodes] places [nshards] shards over
    the node addresses with 64 ring points per node, at version 1.
    [replication] is capped at the node count.
    Raises [Invalid_argument] on an empty node list or nonpositive
    shard count. *)

val version : t -> int

val nshards : t -> int

val nodes : t -> int list
(** All node addresses, ascending. *)

val shard_of_key : t -> string -> int

type snapshot = t
(** A map value used as an immutable routing snapshot (what
    {!Chorus_util.Rcu} cells publish).  Every [t] already is one —
    the alias names the role. *)

val lookup_in : snapshot -> string -> int
(** [lookup_in snap key] is the preferred replica for [key]'s shard —
    a pure function of the snapshot alone, so routing can be tested
    without a live cluster and hot paths can call it against an
    RCU-published snapshot without any lock. *)

val replicas : t -> int -> int array
(** [replicas t shard]: the shard's replica group, preferred node
    first.  The array is owned by the map — do not mutate. *)

val shards_of_node : t -> int -> int list
(** Shards whose replica group includes the node, ascending. *)

val encode : t -> string

val decode : string -> t option

val hash64 : string -> int
(** The FNV-1a hash (63-bit, nonnegative) used for both keys and ring
    points; exposed for tests and for external placement decisions. *)
