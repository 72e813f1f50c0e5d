(** Process-table service.

    Applications are fibers with pids.  The table is one service fiber
    (no locks); application exits are observed through fiber monitors
    and republished on the {!Notify} hub as [App_exit] events, so
    anything — a shell, a supervisor, an init — can watch for them the
    message-channel way. *)

type preq

type t

val start : notify:Notify.t -> unit -> t

val spawn_app : t -> label:string -> (pid:int -> unit) -> int
(** Register a pid, spawn the application fiber (non-daemon), return
    the pid immediately. *)

val wait : t -> int -> bool
(** Block until the pid exits; [true] iff it exited normally.
    Unknown/reaped pids return [false]. *)

val spawned : t -> int
