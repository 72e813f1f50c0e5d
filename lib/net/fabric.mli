(** A lossy network fabric connecting simulated NICs.

    The paper remarks that its proposed kernel "is structurally more
    similar to a client/server network application … than to either
    traditional kernel design", and that verification can borrow
    "techniques developed for networking software".  This substrate
    makes that concrete: nodes exchange frames over a fabric with
    latency and (optionally) loss, each NIC's transmit side is a
    single-fiber driver exactly like {!Chorus_kernel.Blockdev}, and the
    receive side delivers frames as messages on a channel — the
    "interrupt" is just a recv.

    Frames are typed records (no byte-level encoding): the simulation
    cares about counts, sizes and ordering, not wire formats.

    {2 Fault injection}

    Beyond uniform loss the fabric can deterministically duplicate,
    reorder and delay frames — the full unreliable-datagram fault
    space the reliable layer above ({!Stack}) must absorb.  All knobs
    draw from the fabric's seeded RNG {e only when enabled}, so a run
    with every knob at zero is byte-identical to one on a fabric
    without the knobs, and the chaos engine can open and close fault
    windows mid-run ({!set_faults}) without perturbing the stream
    outside them. *)

type frame = {
  src : int;
  dst : int;
  port : int;
  seq : int;
  payload : string;
}

type t

type nic

val create : ?latency:int -> ?loss:float -> ?seed:int -> unit -> t
(** [create ()] builds a fabric; [latency] is the one-way frame delay
    in cycles (default 5000 — an on-package interconnect between
    nodes), [loss] a uniform drop probability (default 0).  The other
    fault knobs start off; {!set_faults} turns them on. *)

val set_faults :
  t -> ?loss:float -> ?dup:float -> ?reorder:float -> ?delay:float ->
  ?delay_cycles:int -> unit -> unit
(** Adjust the fault knobs — the chaos engine's fault-window switch.
    [dup] delivers an extra copy of the frame half a latency late;
    [reorder] holds the frame one extra latency so frames sent after
    it overtake it; [delay] holds the frame [delay_cycles] (initially
    10x latency).  {b Every omitted knob keeps its current value}:
    passing only [~loss:0.10] leaves [dup]/[reorder]/[delay]/
    [delay_cycles] exactly as they were, so closing a window must name
    each knob it opened ([set_faults t ~loss:0.0 ()] closes only the
    loss window).  [set_faults t ()] is a no-op. *)

val set_link_faults :
  t -> src:int -> dst:int -> ?partition:bool -> ?loss:float ->
  ?delay:float -> ?delay_cycles:int -> unit -> unit
(** Install or adjust a {e directed} fault override on the (src,dst)
    link — the gray-failure primitive: a link can drop or crawl in one
    direction while its reverse stays healthy.  [partition] drops every
    frame on the link unconditionally (no RNG draw); [loss] drops each
    frame with the given probability; [delay] holds each frame
    [delay_cycles] (default 10x fabric latency).  Omitted knobs keep
    their current value, mirroring {!set_faults}.  A frame claimed by a
    link fault skips the global knobs; frames on an overridden link
    whose draws all miss fall through to the global knobs unchanged.
    Link knobs draw from the seeded RNG only when enabled, so a fabric
    with no overrides is byte-identical to one without this API. *)

val clear_link_faults : t -> src:int -> dst:int -> unit
(** Remove the (src,dst) override entirely: the link reverts to the
    global knobs alone. *)

val attach : t -> ?label:string -> unit -> nic
(** Add a node: spawns its transmit-driver fiber and returns the NIC.
    Addresses are assigned 0, 1, 2, … in attach order. *)

val addr : nic -> int

val transmit : nic -> frame -> unit
(** Queue a frame for transmission (never blocks; the driver fiber
    serializes the actual sends). The [src] field is overwritten with
    this NIC's address. *)

val rx : nic -> frame Chorus.Chan.t
(** The receive channel: every frame addressed to this NIC (and not
    lost) appears here in transmission order per sender — unless a
    fault knob duplicated, reordered or delayed it. *)

val frames_sent : t -> int

val frames_dropped : t -> int

val frames_delivered : t -> int

type fault_stats = {
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
}

val fault_stats : t -> fault_stats
(** Frames touched by each injection knob (loss is {!frames_dropped}).
    The reliable layer's view of the same faults is
    {!Stack.rel_stats}: a duplicated frame surfaces there as a
    [duplicates_served] replay, a reordered or delayed one as a
    retransmission if it outran the caller's timeout. *)

type link_stats = {
  mutable partitioned : int;  (** frames dropped by a link partition *)
  mutable link_dropped : int;  (** frames dropped by link loss *)
  mutable link_delayed : int;  (** frames held by link delay *)
}

val link_stats : t -> link_stats
(** Frames claimed by per-link overrides ({!set_link_faults}), summed
    across all links.  Partition and link-loss drops also count in
    {!frames_dropped}. *)
