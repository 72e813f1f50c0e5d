(** Entry point: configure a simulated machine, run a program on it,
    collect statistics. *)

type config = Engine.config = {
  machine : Chorus_machine.Machine.t;
  policy : Chorus_sched.Policy.t;
  seed : int;
  trace : Trace.sink option;
}

val config :
  ?policy:Chorus_sched.Policy.t ->
  ?seed:int ->
  ?trace:Trace.sink ->
  Chorus_machine.Machine.t ->
  config
(** Defaults: parent placement, seed 42, no trace. *)

val run : config -> (unit -> unit) -> Runstats.t
(** [run cfg main] executes [main] as the initial fiber on core 0 of a
    fresh engine and returns the run's statistics once every
    (non-daemon) fiber has finished.  Raises {!Engine.Deadlock} when
    progress stops with blocked fibers, and re-raises an exception that
    crashed the main fiber. *)

val run_result : config -> (unit -> 'a) -> 'a * Runstats.t
(** Like {!run} but also returns the value computed by [main]. *)

val set_default_trace : (unit -> Trace.sink) option -> unit
(** [set_default_trace (Some factory)] installs an ambient sink
    factory: every subsequent {!run} whose config has [trace = None]
    calls [factory ()] once at run start and traces into the returned
    sink.  A profiler can thereby observe code that builds its own
    configs (the experiment catalogue) and gets one sink per simulated
    run.  [set_default_trace None] removes it.  Explicit [?trace]
    arguments always win. *)
