(** Execution tracing.

    When a sink is installed in the runtime config, the engine emits
    one record per scheduling-relevant action.  Tests use this to
    assert ordering properties (e.g. a driver fiber never interleaves
    two requests); the CLI can dump traces for debugging, export them
    as Chrome trace-event JSON ({!Chorus_obs.Chrome_trace}) or distill
    them into per-fiber profiles ({!Chorus_obs.Profile}).  Because a
    run is exactly deterministic in (seed, inputs), a trace is a
    faithful, replayable record of the whole execution. *)

type event =
  | Spawn of { child : int; on_core : int }
  | Exit of { status : string }
  | Block of { on : string }
  | Wake
  | Send of { chan : int; words : int; src : int; dst : int }
      (** one record per counted message, mirroring the engine's
          message counters: a direct handoff records sender core to
          receiver core, a buffered deposit records [src = dst] (the
          transit to the eventual receiver is charged at receive
          time), and a receive that claims a blocked sender records
          the sender's core to the receiver's core *)
  | Recv of { chan : int }
  | Steal of { victim_core : int; fiber : int }
  | Span_begin of { subsystem : string; span : string }
      (** opened by service instrumentation ({!Chorus_obs.Span}) *)
  | Span_end of { subsystem : string; span : string }
  | Segment of { start : int; label : string }
      (** emitted when a fiber segment retires: the fiber named
          [label] occupied its core from [start] to the record's
          [time] *)
  | Custom of string

type record = {
  time : int;  (** virtual cycles *)
  core : int;
  fiber : int;
  event : event;
}

type sink = record -> unit

val collector : unit -> sink * (unit -> record list)
(** [collector ()] returns a sink that appends to an unbounded
    in-memory buffer and a function retrieving the records in emission
    order.  Prefer {!ring} for long runs. *)

val ring :
  capacity:int -> unit -> sink * (unit -> record list) * (unit -> int)
(** [ring ~capacity ()] returns a bounded sink that keeps only the
    most recent [capacity] records, a function retrieving the retained
    records in emission order, and a function reporting how many
    records were dropped (oldest first). *)

val pp_record : Format.formatter -> record -> unit
