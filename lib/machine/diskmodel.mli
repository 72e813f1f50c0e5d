(** Disk service-time model shared by both kernels.

    Both the message-passing kernel's single-fiber disk driver and the
    baseline's lock-based block layer consult the same model, so the
    storage hardware is identical across compared systems and only the
    software architecture differs.  The device is a fast 2011 SSD-ish
    one: ~20us discontiguous access, ~2us per-block transfer at 2GHz. *)

val seek : int
(** Cycles for a discontiguous access (head movement). *)

val per_block : int
(** Transfer cycles per block. *)

val service_time : last_block:int -> block:int -> int
(** Cycles to service one block access given the previous head
    position: sequential accesses skip the seek. *)
