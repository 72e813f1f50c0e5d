(** Lightweight threads (paper Section 3: "threads are also
    lightweight, so typically starting one is easy").

    These are the user-facing wrappers over {!Engine}; all of them act
    on the ambient engine of the current {!Runtime.run}. *)

type t = Engine.fiber

type exit_status = Engine.exit_status = Normal | Crashed of exn | Killed

type priority = Engine.priority = High | Normal

val spawn :
  ?on:int -> ?affinity:int -> ?label:string -> ?priority:priority ->
  ?daemon:bool -> (unit -> unit) -> t
(** [spawn body] is the paper's [start { body(); }].  Placement
    follows the run's policy unless [?on] pins a core; [?affinity] is
    an opaque gang key for policies that co-locate groups (see
    {!Chorus_sched.Policy.affinity_groups}).  A [daemon] fiber (device
    driver loops, services) does not keep the run alive and is ignored
    by deadlock detection; under {!Chorus_sched.Policy.work_steal} it
    is never stolen (see there). *)

val self : unit -> t

val id : t -> int

val core : t -> int

val yield : unit -> unit

val sleep : int -> unit
(** Block for n cycles without occupying the core. *)

val work : int -> unit
(** Model [n] cycles of pure computation: occupies the core. *)

val join : t -> exit_status
(** Wait for a fiber to exit and return how it exited. *)

val kill : t -> unit
(** Deferred cancellation: a blocked fiber aborts now; a running one
    dies at its next suspension point.  Its [Killed_exn] unwind runs
    normally so protective handlers fire. *)

val monitor : t -> (time:int -> exit_status -> unit) -> unit
(** Supervision hook: the callback runs when (or immediately if) the
    fiber is done. *)

val alive : t -> bool

val now : unit -> int
(** Current virtual time in cycles. *)

val call : (unit -> 'a) -> 'a
(** Model an ordinary procedure call: charges the call cost, then runs
    [f].  Exists so E1 can compare a message against "the same thing
    as a procedure call" under identical accounting. *)
