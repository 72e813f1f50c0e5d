(** Structured run-state introspection.

    The time-travel debugger ({!Chorus_debug.Snapshot}) needs to walk
    live state — channel occupancy, service inbox depths, raft terms —
    into a typed, printable value while a run is paused at an arbitrary
    virtual time ({!Engine.run_until}).  The subsystems that own that
    state live above [lib/core], so this module inverts the dependency:
    it defines the common {!value} tree plus a global {e provider
    registry}, and each subsystem registers a thunk describing its own
    objects as it creates them (a labelled channel in {!Chan}, an
    endpoint in [Chorus_svc.Svc], a replica group in
    [Chorus_cluster.Cluster]).

    Providers are host-side only: registering one never charges cycles
    or advances virtual time, so an inspected run is byte-identical to
    an uninspected one.  The registry is per-engine — bound in the
    engine's {!Ctx} at creation — so providers never outlive the run
    whose objects they describe and two engines in one process (even
    on different domains) never see each other's providers. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Assoc of (string * value) list

(** {1 Provider registry} *)

type registry
(** One run's providers.  Engines create and bind one in their context
    at {!Engine.create}; reach it with {!snapshot_in} when the run is
    paused rather than stepping. *)

val create_registry : unit -> registry

val attach : Ctx.t -> registry -> unit
(** Bind [registry] as the context's provider registry (done by
    {!Engine.create}). *)

val register : name:string -> (unit -> value) -> unit
(** [register ~name f] adds a provider to the registry of the engine
    the calling domain is currently stepping.  Use ["/"]-separated
    names (["svc/chaos.store"], ["cluster/node2"]); {!snapshot_in}
    sorts by name.  The thunk is called only when a snapshot is taken and
    must not block, charge or suspend.  A no-op outside any run. *)

val snapshot_in : Ctx.t -> (string * value) list
(** Evaluate every provider of an engine's context, sorted by name
    (stable for duplicates) — deterministic for a deterministic run
    paused at a fixed time; what the replay debugger uses while a
    stepped run is paused.  Empty when the context has no registry. *)

(** {1 Rendering} *)

val render : value -> string
(** Stable indented text: one scalar per line, ["- "] list items,
    two-space nesting.  Equal values render byte-identically. *)

val to_json : value -> string
(** Compact single-line JSON ([jq]-composable). *)
