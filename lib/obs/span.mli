(** Span tracing: attribute stretches of virtual time to named
    operations.

    Spans ride the run's {!Chorus.Trace} sink as
    [Span_begin]/[Span_end] records, attributed to fiber, core and
    virtual time by the engine; {!Chrome_trace} renders them as nested
    slices.  A span's latency histogram is the metrics registry's
    ({!timed}).  All
    entry points are no-ops (beyond one flag test) when the run has no
    trace sink, and must be called from inside a fiber. *)

val with_ : subsystem:string -> string -> (unit -> 'a) -> 'a
(** [with_ ~subsystem name f] wraps [f] in a span; the span is closed
    even if [f] raises.  Spans nest. *)

val timed :
  subsystem:string -> name:string -> Metrics.histogram -> (unit -> 'a) -> 'a
(** One-stop operation instrumentation: opens a span (when tracing)
    and records the operation's virtual-time latency into the
    histogram handle (when metrics are installed).  When neither is
    active, calls [f] directly. *)
