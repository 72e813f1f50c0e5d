(** Fiber placement policies.

    Paper Section 5: "Scheduling in general, and the specific problem
    of deciding which threads to place on which cores, and which groups
    of threads to place together on the same core, is likely to present
    a new range of difficulties."  The runtime engine consults a
    [Policy.t] at every spawn (and, when stealing is enabled, whenever
    a core idles) through the read-only [view] of current machine
    state, so policies are pluggable and experiment E8 can compare
    them. *)

type view = {
  cores : int;
  load : int -> int;
      (** runnable fibers currently queued on a core (including the
          one executing) *)
  hops : int -> int -> int;  (** topology distance *)
  rng : Chorus_util.Rng.t;  (** policy-private deterministic stream *)
}

type t

val name : t -> string

val place : t -> view -> parent:int -> affinity:int option -> int
(** [place p v ~parent ~affinity] picks the core for a fiber spawned
    by a fiber running on [parent].  [affinity] is an opaque group key
    ({!Chorus.Fiber.spawn}'s [?affinity]): fibers sharing a key want
    to land together; every policy may use or ignore it. *)

val steal_victim : t -> view -> thief:int -> int option
(** [steal_victim p v ~thief] picks a core to steal from when [thief]
    has run dry, or [None] to stay idle.  Only consulted when the
    policy enables stealing. *)

val steals : t -> bool

(** {1 Policies} *)

val parent : t
(** Children run where their parent runs (no spreading at all). *)

val round_robin : unit -> t
(** Global rotating counter; ignores topology.  Fresh state per call. *)

val random : t
(** Uniformly random core. *)

val least_loaded : t
(** Scan all cores, pick the least loaded (ties to the lowest id);
    models a global run-queue scheduler — itself a scalability risk,
    which E8 exposes as placement cost at high core counts. *)

val locality : ?spill:int -> unit -> t
(** Prefer the parent's core while its queue is shorter than [spill]
    (default 2); otherwise pick the least-loaded core within a small
    neighbourhood, walking outward.  Models hierarchical placement. *)

val work_steal : ?attempts:int -> unit -> t
(** Children start on the parent core; idle cores steal from a random
    victim, probing up to [attempts] (default 4) victims per idle
    event. *)

val affinity_groups : unit -> t
(** Fibers with the same [affinity] key land on the same core (keys
    hash over the cores); fibers without a key are placed
    {!round_robin}.  Models gang placement of
    communicating services — paper Section 5: "which groups of threads
    to place together on the same core". *)

val all : unit -> t list
(** One instance of every policy, fresh state, for sweeps. *)
