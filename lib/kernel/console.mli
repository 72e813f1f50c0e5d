(** Console device driver: the second single-fiber driver (after
    {!Blockdev}), showing the pattern generalizes — a serial-ish
    device that emits characters at a fixed rate, driven entirely by
    its own {!Chorus_svc.Svc} request loop. *)

type t

val start : unit -> t
(** A console emitting 2000 cycles/char (a ~1 MB/s console at 2 GHz).
    The request inbox is unbounded (backpressure). *)

val write_line : t -> string -> unit
(** Blocks the caller until the device has emitted the line. *)

val output : t -> string list
(** Everything written so far, oldest first (test oracle). *)
