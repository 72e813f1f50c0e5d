(** Shared plumbing for the experiment harnesses. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Tablefmt = Chorus_util.Tablefmt
module Histogram = Chorus_util.Histogram
module Runstats = Chorus.Runstats

val machine : ?hw:bool -> int -> Machine.t
(** Mesh machine with [cores] cores; [hw] selects the
    hardware-message-support cost preset. *)

val run :
  ?policy:Policy.t -> ?seed:int -> ?hw:bool -> cores:int ->
  (unit -> 'a) -> 'a * Runstats.t
(** Run a program on a fresh engine (round-robin placement by
    default — experiments want spreading unless stated). *)

(** The file server a {!run_fs} boots. *)
type fs_server =
  | Msg_kernel of Chorus_kernel.Kernel.config
      (** the message kernel; each client gets its own view *)
  | Lock_kernel
      (** the trap+locks baseline ({!Chorus_baseline.Shvfs} at its
          default configuration); each client gets its own view *)
  | Libos
      (** one linked library instance ({!Chorus_kernel.Libos}) that
          every client shares *)

val run_fs :
  seed:int -> Machine.t -> fs_server -> Chorus_workload.Fsload.config ->
  Chorus_workload.Fsload.result * Runstats.t
(** [run_fs ~seed m server cfg] boots [server] on a fresh engine over
    [m] (round-robin placement, engine seed [seed]), runs
    [Fsload.setup] and then [Fsload.run_clients] with [cfg], and
    returns the load's result with the run's statistics.  E3, E4,
    E12, E15 and E16 run their file server through it. *)

val pick : quick:bool -> int -> int -> int
(** [pick ~quick q f] is [q] in quick mode, [f] in full mode. *)

val core_sweep : quick:bool -> int list
(** 1..1024 powers of two (1..256 in quick mode). *)
