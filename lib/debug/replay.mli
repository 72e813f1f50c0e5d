(** Time-travel replay: drive any chaos (scenario, schedule) to a
    virtual time [T], pause, and snapshot the complete live state.

    "Time travel" here is the deterministic-simulation kind: there is
    no checkpointing, because re-execution {e is} random access — the
    same schedule replays byte-identically, so "go to time T" is just
    "run again and stop at T".  Combined with {!Snapshot.diff} this
    turns a failing/passing schedule pair (e.g. a shrunk reproducer
    and its nearest passing neighbour) into a first-divergence report:
    the earliest trace event where the two executions differ, plus a
    structural diff of their states at T. *)

type run = {
  scenario : Chorus_chaos.Chaos.scenario;
  schedule : Chorus_chaos.Schedule.t;
  at : int;
  snapshot : Chorus.Inspect.value;
  trace : Chorus.Trace.record list;  (** emission order, up to [at] *)
}

val run_to :
  Chorus_chaos.Chaos.scenario -> Chorus_chaos.Schedule.t -> at:int -> run
(** Prepare the scenario, install a fresh metrics registry and a trace
    collector, step the run to virtual time [at] and
    capture a snapshot.  The run is then abandoned (never drained), so
    the scenario's oracles do not fire; ambient hooks (current engine,
    crash point, metrics registry) are restored on every exit path.
    Deterministic: same (scenario, schedule, [at]) gives a
    byte-identical snapshot and trace. *)

type divergence = {
  index : int;  (** position in emission order, 0-based *)
  left : Chorus.Trace.record option;
  right : Chorus.Trace.record option;  (** [None] = trace ended *)
}

val first_divergence :
  Chorus.Trace.record list ->
  Chorus.Trace.record list ->
  divergence option
(** First index at which the two traces differ structurally, or [None]
    when identical (prefix-equal and same length). *)

val pp_record_str : Chorus.Trace.record option -> string
(** One-line rendering for divergence reports; ["(end of trace)"] for
    [None]. *)

type comparison = {
  run_a : run;
  run_b : run;
  divergence : divergence option;
  state_diff : Snapshot.entry list;
}

val compare_runs :
  Chorus_chaos.Chaos.scenario ->
  Chorus_chaos.Schedule.t ->
  Chorus_chaos.Schedule.t ->
  at:int ->
  comparison
(** Execute both schedules to the same [at] and report the first
    diverging trace event plus the structural state diff — the
    [replay --diff] engine. *)
