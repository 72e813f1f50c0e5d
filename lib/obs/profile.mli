(** Per-fiber latency/occupancy profiles distilled from a trace.

    Because a run is exactly deterministic in (seed, inputs), the
    trace is a complete account of where cycles and messages went;
    this module folds it into: busy cycles per fiber (from [Segment]
    records, so it matches the engine's core-busy accounting exactly),
    each fiber's core, its spawn and exit times, and its wait for that
    core (runnable, not running: from each [Wake] to its next
    [Segment]),
    blocked time per fiber broken down by suspend tag (from
    [Block]/[Wake] pairs), a core-by-core message-flow matrix (from
    [Send] records) and a latency histogram per service span.

    Feed it the records of one run; merging runs would conflate
    unrelated fibers that share ids. *)

type fiber_stats = {
  fid : int;
  mutable label : string;
  mutable core : int;
      (** the core it runs on: from its [Spawn], moved by each [Steal];
          a fiber whose [Spawn] the records miss starts on the core of
          its first record *)
  mutable spawned : int;
      (** time of the [Spawn] record naming it, or -1 if the records
          miss it *)
  mutable exited : int;  (** time of its [Exit] record, or -1 *)
  mutable busy : int;  (** cycles the fiber occupied a core *)
  mutable waited : int;
      (** cycles it waited for its core: from each [Wake] to the start
          of its next [Segment] *)
  mutable blocked : int;  (** cycles between each Block and its Wake *)
  by_tag : (string, int) Hashtbl.t;  (** blocked cycles per suspend tag *)
  mutable sent : int;
  mutable received : int;
}

type t = {
  fibers : fiber_stats list;  (** sorted by fiber id *)
  cores : int;
  matrix : int array array;  (** [matrix.(src).(dst)] = messages *)
  spans : ((string * string) * Chorus_util.Histogram.t) list;
      (** per-[(subsystem, span)] latency, sorted by key *)
  records : int;  (** trace records consumed *)
}

val of_records : Chorus.Trace.record list -> t

val top_busy : t -> n:int -> fiber_stats list
(** Fibers with the most busy cycles, descending (ties by id);
    fibers with zero busy time are omitted. *)

val top_blocked : t -> n:int -> fiber_stats list

val top_waited : t -> n:int -> fiber_stats list
(** Fibers that waited longest for their core, as {!top_busy}. *)

val last_exited : t -> n:int -> fiber_stats list
(** The [n] fibers that exited last, latest first (ties by id). *)

val blocked_breakdown : fiber_stats -> (string * int) list
(** Blocked cycles per suspend tag, largest first. *)

val messages : t -> int
(** Total messages in the flow matrix. *)
