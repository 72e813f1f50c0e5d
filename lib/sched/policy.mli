(** Fiber placement policies.

    Paper Section 5: "Scheduling in general, and the specific problem
    of deciding which threads to place on which cores, and which groups
    of threads to place together on the same core, is likely to present
    a new range of difficulties."  The runtime engine consults a
    [Policy.t] at every spawn through the read-only [view] of current
    machine state, so policies are pluggable and experiment E8 can
    compare them.  Stealing is not a policy function: a policy only
    says whether it steals ({!steals}), and the engine's one stealing
    mechanism (idle cores park; a backlog rings one doorbell) does the
    rest. *)

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

val steals : t -> bool
(** Whether the engine balances load by stealing under this policy. *)

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

val locality : unit -> t
(** Prefer the parent's core while its queue is shorter than 2;
    otherwise pick the least-loaded core within a small neighbourhood,
    walking outward.  Models hierarchical placement. *)

val work_steal : unit -> t
(** Children start on the parent core and idle cores steal them.  A
    core that runs dry takes the first non-daemon fiber queued on the
    newest backlogged core whose load is above 1, paying the fiber's
    migration (a cache miss plus per-hop coherence); with no such core
    it parks and costs no events.  A push that leaves a non-daemon
    fiber waiting behind a busy core rings the doorbell of the most
    recently parked core, which arrives one one-word message latency
    later and steals.  Every core starts parked.  Daemons are services
    and stay where they are placed: the engine never steals one, and
    places one spawned without [?on] on the next core in turn from
    core 1 rather than on its parent's core (DESIGN D17).  The message
    kernel spawns its block-cache shards, vnodes and name caches with
    [?on] ([Chorus_kernel.Place], DESIGN D22); its disk driver,
    allocators and dispatchers take the turn. *)

val affinity_groups : unit -> t
(** Fibers with the same [affinity] key land on the same core (keys
    hash over the cores); fibers without a key are placed
    {!round_robin}.  Models gang placement of
    communicating services — paper Section 5: "which groups of threads
    to place together on the same core". *)

val all : unit -> t list
(** One instance of every policy, fresh state, for sweeps. *)
