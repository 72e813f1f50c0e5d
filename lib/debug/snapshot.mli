(** State snapshots: walk a paused engine plus every registered
    {!Chorus.Inspect} provider into one typed, printable value.

    A snapshot is taken {e between} events (after
    {!Chorus.Engine.run_until}), so it is the complete machine state
    "at end of cycle T": per-core run queues and fiber states from
    {!Chorus.Engine.inspect}, channel occupancy, service inbox
    depths, raft per-shard terms and commit indices from the provider
    registry, and the installed {!Chorus_obs.Metrics} registry if any.
    Capture is host-side only — it charges no virtual cycles — so a
    snapshotted run stays byte-identical to an unsnapshotted one.
    A snapshot is an ordinary {!Chorus.Inspect.value}: print it with
    {!Chorus.Inspect.render} (stable text) or {!Chorus.Inspect.to_json}. *)

val value_of_metrics : Chorus_obs.Metrics.snapshot -> Chorus.Inspect.value
(** A metrics snapshot as an assoc keyed ["subsystem/name"], each
    metric tagged with its kind — shared by [--json] CLI modes. *)

val capture : ?at:int -> Chorus.Engine.t -> Chorus.Inspect.value
(** [capture ~at eng] assembles [{at; engine; subsystems; metrics}].
    [at] defaults to the engine's current time. *)

(** {1 Structural diff} *)

type entry = { path : string; left : string option; right : string option }
(** One divergent leaf: slash-separated path ([engine/cores[2]/busy]),
    rendered value on each side, [None] where the path is absent. *)

val diff : Chorus.Inspect.value -> Chorus.Inspect.value -> entry list
(** Structural comparison, depth-first in the left value's field
    order.  Assoc fields are matched by key, lists by index; a
    kind-mismatched node is reported as one entry with both sides
    collapsed to compact JSON.  Empty iff the values are equal. *)

val render_diff : entry list -> string
(** One line per entry: [path: left -> right], [(absent)] for a
    missing side. *)

val value_of_diff : entry list -> Chorus.Inspect.value
(** The diff as a value, for [--json] output. *)
