(** Mutable double-ended queue (growable circular buffer).

    Used for per-core run queues: the owning core pushes and pops at the
    back (LIFO for cache warmth is not modelled; FIFO order is used for
    determinism) while work-stealing removes from the front. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val push_front : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a option

val pop_back : 'a t -> 'a option

val peek_front : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] visits elements front to back. *)

val to_list : 'a t -> 'a list
(** [to_list t] lists elements front to back. *)
