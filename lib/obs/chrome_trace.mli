(** Chrome trace-event JSON export.

    Renders a trace-record list in the Chrome "JSON object format" so
    any run can be opened in about://tracing or {{:https://ui.perfetto.dev}Perfetto}.
    The simulated chip is one process; each core is a "thread" row
    showing the fiber segments it executed (slices named by fiber
    label), with a parallel "core N spans" row for service spans and
    instant marks for scheduler/channel events.  Virtual cycles map
    1:1 to the format's microsecond timestamps.  An instant mark is
    named and filled by {!Chorus.Trace.fields}, after the record's
    [fiber]; the document is one {!Chorus.Inspect.value}, written by
    {!Chorus.Inspect.to_json} or, to a file, {!Chorus.Inspect.output_json}.

    The output is a pure function of the input records: a run with a
    fixed (seed, inputs) exports byte-identical JSON. *)

val to_string : Chorus.Trace.record list -> string

val write_file : string -> Chorus.Trace.record list -> unit
(** [write_file path records] writes [to_string records]'s bytes to
    [path], streaming them rather than building the string. *)
