(** Asynchronous kernel-to-application event service.

    Paper Section 3.1: "thermal, power, and hot-plug events necessarily
    originate in the kernel and flow upward to user space.  Handling
    these in a traditional nested kernel design is always somewhat
    problematic ... In an environment designed around message channels
    this is not needed."

    Kernel components publish events; applications subscribe with a
    channel and simply receive — no signal frames, no unwinding, no
    special-purpose notification syscalls.  E7 measures the mechanism
    underneath, delivery over a raw channel, against the baseline's
    {!Chorus_baseline.Signals}. *)

type event =
  | Thermal of int  (** die temperature report *)
  | Power of int  (** power-state change *)
  | Hotplug of { core : int; online : bool }
  | Io_complete of int  (** tagged I/O completion *)
  | App_exit of { pid : int; ok : bool }
  | Custom of string

type msg

type t

val start : unit -> t
(** Spawn the notification hub fiber (unbounded inbox). *)

val subscribe : t -> event Chorus.Chan.t
(** Returns a fresh unbounded channel on which every subsequent
    published event arrives. *)

val subscribe_filtered : t -> (event -> bool) -> event Chorus.Chan.t
(** Server-side filtering: only matching events are forwarded. *)

val publish : t -> event -> unit
(** Fire-and-forget from any fiber. *)

val published : t -> int

val delivered : t -> int
(** Total subscriber deliveries (published x matching subscribers). *)
