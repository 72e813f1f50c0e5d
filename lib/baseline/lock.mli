(** Blocking ticket lock with modelled coherence contention.

    The incumbent synchronization primitive the paper argues does not
    scale (Sections 1-2).  Acquisition is an atomic RMW on the lock's
    cache line; a contended acquire parks the fiber FIFO and, on
    hand-off, pays the line transfer from the releasing core — so a
    lock bouncing between distant cores costs more than one bouncing
    within a cluster, and a convoy on a global lock serializes with
    per-hand-off coherence latency.  Statistics feed the scalability
    experiments. *)

type t

val create : ?label:string -> unit -> t

val acquire : t -> unit

val release : t -> unit
(** Raises [Invalid_argument] when the caller does not hold the
    lock. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Exception-safe acquire/release bracket. *)

(** {1 Contention statistics} *)

val acquisitions : t -> int

val contended : t -> int
(** Acquisitions that had to wait. *)

val wait_cycles : t -> int
(** Total cycles fibers spent parked on this lock. *)
