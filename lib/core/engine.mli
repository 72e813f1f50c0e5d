(** The discrete-event fiber engine.

    This module is the mechanism underneath the public [Fiber] / [Chan]
    API.  It owns virtual time, per-core run queues, fiber lifecycle,
    placement, work stealing, deadlock detection and the statistics
    counters.  Higher layers interact with it through {!charge} (cost
    accounting), {!suspend} (blocking) and {!schedule_at} (timers).

    {2 Timing model}

    Virtual time is counted in cycles (plain [int]).  A fiber executes
    in {e segments}: from a (re)start to the next suspension.  Host
    execution of a segment is instantaneous; costs charged during the
    segment accumulate, and the segment is deemed to occupy its core
    from its start time to start + accumulated.  Cross-fiber
    interactions are linearized in event order; within a segment,
    operation timestamps are [segment start + charges so far].  This
    "optimistic segment" scheme makes whole-run results exactly
    deterministic in (seed, inputs) while keeping event counts low; its
    one approximation is that a non-blocking poll ([try_recv]) observes
    state in event order rather than at exact intra-segment cycle
    granularity.

    {2 Work stealing}

    Under a policy that steals ({!Chorus_sched.Policy.steals}), idle
    cores park instead of polling.  The engine keeps the set of cores
    whose run queue is non-empty and a stack of parked cores; both are
    host-side knowledge standing in for a hardware idle bitmap.  A
    core whose own queue runs dry steals from the newest backlogged
    core with more than one runnable fiber, or parks if there is none.
    A wake that leaves a fiber waiting behind a busy core rings the
    doorbell of the most recently parked core, which arrives one
    one-word message latency later; a steal charges the fiber's
    migration (a cache miss plus per-hop coherence) to the thief.
    Every core starts parked, so an idle chip costs no events. *)

type t

type fiber

type exit_status = Normal | Crashed of exn | Killed

exception Deadlock of string
(** Raised by {!run} when no event is pending yet a non-daemon fiber is
    still blocked.  The payload lists every blocked fiber and what it
    waits on — the runtime analogue of the wait-for-graph check — and
    then every daemon fiber that crashed, with its exception: a dead
    service loop is the usual reason a caller waits forever. *)

exception Killed_exn
(** Raised inside a fiber being killed, so its cleanup handlers run. *)

type config = {
  machine : Chorus_machine.Machine.t;
  policy : Chorus_sched.Policy.t;
  seed : int;
  trace : Trace.sink option;
}
(** Build one with {!Runtime.config}.  Every run stops with a failure
    after 200M events (a runaway-loop backstop). *)

(** {1 Run lifecycle} *)

val create : config -> t

val ctx : t -> Ctx.t
(** The engine's per-run context: slot bindings (Inspect registry,
    metrics registry, crash points, …) scoped to this run.  Active on
    the stepping domain while the engine processes events; read it
    explicitly ({!Chorus.Inspect.snapshot_in}) while a stepped run is
    paused. *)

val run : t -> (unit -> unit) -> unit
(** [run t main] spawns [main] as fiber 0 on core 0 and processes
    events until none remain or [main] crashes.  Raises [Deadlock] as
    described above, [Failure] if the event cap is hit, and [main]'s
    own exception if it crashed; crashes of other fibers are reported
    through monitors (supervision is a feature, not an accident). *)

val current : unit -> t
(** The engine whose events the calling domain is currently stepping
    (per-domain, so concurrent engines on different domains each see
    their own).  Raises [Failure] outside of [run]. *)

(** {1 Stepped execution (the time-travel replay surface)}

    [run t main] is equivalent to [start t main; finish t].  A replay
    driver instead interleaves {!run_until} with state inspection:

    {[
      Engine.start t main;
      Engine.run_until t 250_000;   (* pause at virtual time 250k *)
      ... Engine.inspect t ...      (* look around *)
      Engine.run_until t 400_000;   (* resume to 400k *)
      Engine.stop t                 (* abandon, or [finish t] to drain *)
    ]}

    While paused, no fiber is mid-segment: every event with time <=
    the limit has been processed and the next pending event (if any)
    lies strictly after it, so inspected state is the complete
    machine state "at end of cycle T". *)

val start : t -> (unit -> unit) -> unit
(** Spawn [main] as fiber 0 on core 0 without processing any event,
    and adopt the domain's ambient {!Ctx} bindings (installed metrics
    registry, trace factory, crash points) into the engine's context.
    Fails if called from inside a running fiber (nested runs stay
    unsupported) or if [t] was already started.  Several started
    engines may coexist — interleave their {!run_until}s freely, or
    run them concurrently from different domains. *)

val run_until : t -> int -> unit
(** [run_until t limit] processes every pending event with virtual
    time <= [limit], then returns.  Resumable: a later call with a
    larger limit continues exactly where this one stopped.  Raises like
    {!run} on the event cap; deadlock checking is deferred to
    {!finish} (a paused run legitimately has blocked fibers).  Fails
    unless [t] was {!start}ed. *)

val finish : t -> unit
(** Drain every remaining event, then apply {!run}'s end-of-run
    checks (main-fiber crash re-raise, deadlock detection) and mark
    the run over.  A crash of the main fiber ends the draining at
    once: the crash is re-raised without stepping the daemons that
    outlive it. *)

val stop : t -> unit
(** Abandon a stepped run: mark it over without draining or checking
    anything.  Idempotent. *)

val drained : t -> bool
(** No events pending. *)

val inspect : t -> Inspect.value
(** The engine's own state as a structured value: time, machine,
    statistics counters, per-core run queues (free_at, busy, queued
    fibers) and every live fiber (label, core, state, wait tag).
    Subsystem state (channels, services, raft) is reached through the
    {!Inspect} provider registry instead. *)

(** {1 Introspection} *)

val machine : t -> Chorus_machine.Machine.t

val costs : t -> Chorus_machine.Cost.t

val now : t -> int
(** Current virtual time: inside a fiber segment, segment start plus
    charges so far; between segments, the current event time. *)

val rng : t -> Chorus_util.Rng.t

val fresh_id : t -> int
(** Unique small integers for channel / object labelling. *)

(** {1 Fiber operations (called from inside a running fiber)} *)

val self : t -> fiber

val fiber_id : fiber -> int

val fiber_label : fiber -> string

val fiber_core : fiber -> int

type priority = High | Normal
(** [High] fibers jump their core's run queue on every wake — for
    interrupt-style service fibers (drivers) that must not sit behind
    batch work. *)

val spawn :
  t -> ?on:int -> ?affinity:int -> ?label:string -> ?priority:priority ->
  ?daemon:bool -> (unit -> unit) -> fiber
(** [spawn t body] creates a fiber.  Placement: [?on] pins a core,
    otherwise the configured policy decides (passing [?affinity], an
    opaque gang key, through to it).  The parent (when called from a
    fiber) is charged the spawn cost; a remote placement additionally
    costs one small message.  Daemon fibers do not keep the run alive
    and are not deadlock suspects.  Under a stealing policy a daemon is
    a service that stays where it is placed: it is never stolen, and
    one spawned without [?on] goes to the next core in turn from core
    1, not to its parent's core. *)

val charge : t -> int -> unit
(** [charge t n] accounts [n] cycles of CPU work on the calling
    fiber's core. *)

val yield : t -> unit
(** End the current segment; requeue at the back of the core's run
    queue. *)

val sleep : t -> int -> unit
(** Block without occupying the core for [n] cycles (device latency,
    timer waits). *)

type 'a waker
(** A one-shot capability to resume a suspended fiber.  Exactly one of
    {!wake_at} / {!wake_err_at} must be called, once; later calls are
    ignored (needed by choice, where several registrations race). *)

val wake_at : 'a waker -> int -> 'a -> unit
(** [wake_at w time v] makes the fiber runnable at virtual [time] with
    [suspend]'s result [v]. *)

val wake_err_at : 'a waker -> int -> exn -> unit
(** Resume by raising [exn] at the suspension point. *)

val waker_fiber : 'a waker -> fiber

val waker_live : 'a waker -> bool
(** [true] while the suspended fiber can still be woken through this
    waker (it has not been woken, aborted or killed). *)

val suspend : t -> tag:string -> ('a waker -> unit) -> 'a
(** [suspend t ~tag register] ends the segment and blocks the calling
    fiber; [register] stows the waker somewhere (a channel wait queue,
    a timer).  [tag] names the resource for deadlock reports. *)

val schedule_at : t -> int -> (unit -> unit) -> unit
(** [schedule_at t time f] runs the plain callback [f] at virtual
    [time] (must be >= {!now}).  Callbacks run outside any fiber:
    they may wake fibers but must not suspend or charge. *)

(** {1 Lifecycle of other fibers} *)

val monitor : t -> fiber -> (time:int -> exit_status -> unit) -> unit
(** [monitor t f cb] invokes [cb] when [f] exits (immediately if it
    already has).  Basis of supervision and [join]. *)

val kill : t -> fiber -> unit
(** Request termination: a blocked fiber is aborted immediately (its
    [Killed_exn] unwind runs as a segment); a runnable/running fiber
    dies at its next suspension point (deferred cancellation). *)

val alive : fiber -> bool

val status : fiber -> exit_status option

(** {1 Statistics counters (updated by channel code)} *)

type counters = {
  mutable msgs : int;
  mutable remote_msgs : int;
  mutable words_copied : int;
  mutable hops : int;
  mutable spawns : int;
  mutable steals : int;
  mutable segments : int;
  mutable events : int;
  mutable wakes : int;
  mutable retries : int;
      (** protocol-level retransmissions (updated by library code, e.g.
          {!Stack.call} retry attempts) *)
}

val counters : t -> counters

val emit : t -> Trace.event -> unit
(** Emit a trace record attributed to the current fiber (no-op without
    a sink). *)

val tracing : t -> bool
(** Whether a trace sink is installed.  Instrumentation that must
    allocate to build an event should check this first so that an
    untraced run pays nothing. *)

val core_busy : t -> int array
(** Per-core busy cycles so far. *)

val elapsed : t -> int
(** Highest virtual time reached (makespan so far). *)

val live_fibers : t -> int
