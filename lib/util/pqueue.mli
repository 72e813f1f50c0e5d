(** The discrete-event engine's event heap: a binary min-heap of
    thunks keyed on (virtual time, sequence number).

    The sequence number makes the order of simultaneous events
    deterministic.  Keys live unboxed in two [int] arrays beside the
    thunk array, so [add] and [pop] allocate nothing except when the
    heap doubles. *)

type t

val create : unit -> t
(** An empty heap with room for 64 events. *)

val length : t -> int

val is_empty : t -> bool

val add : t -> time:int -> seq:int -> (unit -> unit) -> unit
(** [add t ~time ~seq thunk] inserts [thunk] in O(log n). *)

val min_time : t -> int
(** The time of the smallest key.  Raises [Invalid_argument] when
    empty. *)

val pop : t -> (unit -> unit)
(** [pop t] removes the smallest key in O(log n) and returns its
    thunk.  Raises [Invalid_argument] when empty. *)
