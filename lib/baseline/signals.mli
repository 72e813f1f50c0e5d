(** Unix signal delivery, with the unwind-and-restart cost the paper
    singles out (Section 3.1): "If the process or thread receiving a
    signal is working in the kernel, it must abandon and unwind
    everything that was in progress in the kernel to deliver the
    signal.  Then, typically, the process must restart the system call
    and redo all the work it just unwound."

    A {!proc} is the signal context of one fiber.  Kernel work is
    performed through {!interruptible_syscall}, which checks for
    pending signals at preemption points; if one arrived, the progress
    made so far is abandoned (those cycles were already spent), the
    handler runs after the delivery cost, and the system call restarts
    from scratch.  Experiment E7 measures the waste against channel
    notification. *)

type proc

val create : unit -> proc

val deliver : proc -> handler:(unit -> unit) -> unit
(** Post a signal.  If the process is parked in {!wait_signal}, it
    wakes; if it is mid-syscall, the signal takes effect at the next
    preemption point. *)

val interruptible_syscall : proc -> work:int -> unit
(** Perform [work] cycles of in-kernel work in 500-cycle chunks,
    restarting from zero whenever a signal interrupts.
    Includes the trap/return crossings. *)

val wait_signal : proc -> unit
(** Park (sigsuspend) until at least one signal is delivered, then run
    its handler. *)

val pending : proc -> int

val wasted_cycles : proc -> int
(** Cycles of abandoned in-kernel progress so far (the redo tax). *)

val delivered : proc -> int
