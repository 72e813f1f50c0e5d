(** Reader-writer lock (writer-preferring) with coherence-cost
    accounting, for the baseline kernel's read-mostly structures
    (name cache, mount table). *)

type t

val create : ?label:string -> unit -> t

val with_read : t -> (unit -> 'a) -> 'a

val with_write : t -> (unit -> 'a) -> 'a
