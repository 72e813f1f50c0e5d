(** Directory-coherence cost model for shared cache lines.

    The shared-memory baseline kernel charges its loads and stores
    through this module: each tracked line remembers its current owner
    (last writer) and sharer set, and an access returns the cycle cost
    the requesting core pays — a hit when the line is already local, a
    remote transfer scaled by hop distance otherwise, plus invalidation
    traffic on writes.  This is what makes lock contention and shared
    data structures *cost* something in the simulation, which is the
    mechanism behind the paper's "locks and shared memory do not scale"
    claim. *)

type line

val line : unit -> line
(** [line ()] creates a line initially owned by core 0 with no
    sharers. *)

val read : Machine.t -> line -> Topology.core -> int
(** [read m l c] returns the cycles core [c] pays to load the line and
    records [c] as a sharer. *)

val write : ?now:int -> Machine.t -> line -> Topology.core -> int
(** [write m l c] returns the cycles core [c] pays to gain exclusive
    ownership: a transfer from the previous owner if remote plus an
    invalidation round to every other sharer (charged as the farthest
    sharer's round trip).

    When [now] (current virtual time) is supplied, exclusive accesses
    additionally {e serialize} on the line: ownership transfers queue
    behind one another, so N cores hammering one line see their costs
    grow linearly — the coherence collapse that makes hot locks and
    shared counters stop scaling.  This queueing is the physical
    mechanism behind the paper's Section 1 claim. *)

val rmw : ?now:int -> Machine.t -> line -> Topology.core -> int
(** [rmw m l c] is an atomic read-modify-write: [write] cost plus the
    atomic-operation cost.  This is the unit of lock traffic. *)

val owner : line -> Topology.core

val sharers : line -> int
(** Number of cores currently sharing the line (including the owner). *)

val reset : line -> Topology.core -> unit
(** Forget all sharers and set a fresh owner (used when a data
    structure is reinitialised between experiment phases). *)
