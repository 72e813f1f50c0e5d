(** A simulated multicore machine: a topology plus a cycle cost model.

    This is the substrate substituted for the paper's hypothetical
    hundreds-of-cores chips (see DESIGN.md, substitution table).  It is
    purely descriptive — the runtime engine does the accounting. *)

type t

val make : Topology.t -> Cost.t -> t

val costs : t -> Cost.t

val cores : t -> int

val hops : t -> Topology.core -> Topology.core -> int

val mesh_sides : t -> (int * int) option
(** [Some (w, h)] on a [w]-wide, [h]-tall mesh (core [c] at column
    [c mod w], row [c / w]); [None] on every other topology. *)

val centre_out : t -> Topology.core array
(** Every core, nearest the topology's centre ({!Topology.centre})
    first; cores at one distance in id order.  O(cores). *)

(** {1 Derived message costs} *)

val message_latency : t -> src:Topology.core -> dst:Topology.core ->
  words:int -> int
(** End-to-end cycles for one message of [words] payload words:
    inject + hops * per_hop + words * per_word + receive.  A message to
    the local core still pays inject + receive (queue traversal). *)

val transfer_latency : t -> owner:Topology.core -> requester:Topology.core ->
  int
(** Cycles to move a cache line from [owner] to [requester]
    (miss + per-hop coherence cost); equals [cache_miss] when local. *)

(** {1 Presets} *)

val mesh : cores:int -> t
(** Square-ish 2D mesh with software messages; the "hundreds of cores"
    regime on today's coherence hardware. *)

val mesh_hw : cores:int -> t
(** Same mesh with native hardware message support (paper Section 4's
    supposition). *)

val describe : t -> string

val facts : t -> (string * int) list
(** Introspection hook for state snapshots: the machine's shape and
    headline cost constants as named integers (cores, topology
    diameter, message/coherence costs), in a fixed order. *)
