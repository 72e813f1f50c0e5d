(** FlexSC-style exception-less system calls (Soares & Stumm, OSDI'10;
    paper reference [22]).

    The middle point between trap-per-call and message syscalls:
    requests are written into a shared syscall page (coherence-charged
    writes), then one trap processes the whole batch.  E2 compares all
    three mechanisms. *)

type t

val create : ?batch:int -> unit -> t
(** [batch] is the syscall-page capacity (default 32). *)

val submit : t -> (unit -> unit) -> unit
(** Queue one syscall; flushes automatically when the page fills. *)

val flush : t -> unit
(** Trap once and execute every queued syscall. *)

val traps : t -> int
(** Total traps taken (flushes). *)
