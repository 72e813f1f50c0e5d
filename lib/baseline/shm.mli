(** Simulated shared-memory cells.

    A [Shm.t] is a mutable cell living on a tracked cache line: reads
    and writes by fibers are charged coherence costs according to which
    core last owned the line.  This is the data substrate of the
    baseline kernel — every shared kernel structure the paper says
    "does not scale" is built from these, so its coherence traffic is
    accounted rather than assumed. *)

type 'a t

val create : 'a -> 'a t
(** [create v] allocates a cell holding [v], line initially homed on
    core 0. *)

val read : 'a t -> 'a
(** Charged as a coherence read from the calling fiber's core. *)

val write : 'a t -> 'a -> unit
(** Charged as a coherence write (exclusive ownership + invalidation). *)

val update : 'a t -> ('a -> 'a) -> 'a
(** Atomic read-modify-write (one rmw charge); returns the {e old}
    value. *)

val peek : 'a t -> 'a
(** Read without cost accounting (for assertions and test oracles). *)
