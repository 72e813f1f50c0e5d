(** Fault schedules: the explorable coordinates of a chaos run.

    A schedule is a {e value} — a seed plus a list of faults pinned to
    absolute virtual times — so the fault space is enumerable, any
    point in it replays byte-identically from the schedule alone, and
    a failing schedule can be shrunk by deleting faults one at a time
    ({!subschedules}).  This is the deterministic-simulation answer to
    stochastic fault injection: instead of "crash something every ~N
    cycles and hope", the campaign driver walks a grid of schedules
    and every interesting one is a reproducer by construction. *)

type fault =
  | Kill_node of { node : int; at : int }
      (** crash a whole cluster node (root fiber kill) at [at] *)
  | Kill_point of { point : string; at : int; dur : int }
      (** crash the service fiber owning crash point [point]
          ({!Chorus_svc.Svc.set_crashpoint} name, i.e.
          ["subsystem.label"]) at its first dequeue inside
          [[at, at+dur)] — the dequeued request is lost with it *)
  | Frame_loss of { at : int; dur : int; p : float }
  | Frame_dup of { at : int; dur : int; p : float }
  | Frame_reorder of { at : int; dur : int; p : float }
      (** open a fabric fault window: probability [p] from [at] for
          [dur] cycles, then back to zero *)
  | Frame_delay of { at : int; dur : int; p : float; cycles : int }
  | Disk_errors of { at : int; dur : int; p : float }
      (** transient {!Chorus_kernel.Blockdev} read faults with
          probability [p] inside the window *)
  | Link_delay of {
      src : int;
      dst : int;
      at : int;
      dur : int;
      p : float;
      cycles : int;
    }
      (** gray-failure window on the directed (src,dst) link only:
          each frame held [cycles] with probability [p]
          ({!Chorus_net.Fabric.set_link_faults}) — the slow-but-alive
          node, one direction at a time *)
  | Partition of { src : int; dst : int; at : int; dur : int }
      (** asymmetric partition window: every frame on the directed
          (src,dst) link dropped inside [[at, at+dur)]; the reverse
          direction is untouched *)

type t = { seed : int; faults : fault list }

val nfaults : t -> int

val kind : fault -> string
(** Short tag for histograms: ["kill-node"], ["kill-point"],
    ["loss"], ["dup"], ["reorder"], ["delay"], ["disk"],
    ["link-delay"], ["partition"]. *)

val to_string : t -> string
(** Compact one-line form, e.g.
    [seed=7 kill-point(chaos.store)@120000+80000 disk(p=0.30)@200000+150000]
    — what a violation report prints as the reproducer. *)

val of_string : string -> t
(** Parse {!to_string}'s format back into a schedule, so a reproducer
    printed by a violation report (or pasted into
    [chorus_sim replay --schedule]) is directly runnable.  Raises
    [Invalid_argument] on malformed input.  Round-trip guarantee:
    [to_string (of_string (to_string s)) = to_string s] (probabilities
    are printed with two decimals, so the printed form is the
    canonical one). *)

val subschedules : t -> t list
(** Every schedule obtained by deleting exactly one fault (same seed,
    same order otherwise) — the shrinking neighbourhood. *)
