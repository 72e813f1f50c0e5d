(** Virtual-memory service (the conservative design).

    Paper Section 5 raises two open questions this module makes
    concrete and measurable:

    - "the virtual memory system is retained, but its internal design
      will be necessarily much different from today's centralized
      model": page-table state is partitioned over manager fibers,
      page faults are messages, frames come from a frame-allocator
      fiber;
    - "one might build a virtual memory system with a thread for every
      page of physical memory; that would produce too many threads":
      [pages_per_manager] sweeps the granularity from exactly that
      pathological extreme (1) to fully centralized (= pages), which
      is experiment E9's U-curve.

    The address space model is deliberately small: a fault either maps
    a fresh frame or is a no-op on an already-mapped page. *)

type t

val start : ?pages_per_manager:int -> pages:int -> frames:int -> unit -> t
(** Spawn [pages / pages_per_manager] manager fibers (default
    granularity 1024) plus the frame allocator. *)

val fault : t -> int -> [ `Mapped | `Already | `Oom ]
(** Handle a fault on a page: RPC to its manager, which maps a frame
    (allocating one on first touch). *)

val protect : t -> int -> unit
(** Unmap a page, returning its frame (models reclaim). *)

val mapped : t -> int
(** Pages currently mapped (sums over managers). *)

val managers : t -> int
