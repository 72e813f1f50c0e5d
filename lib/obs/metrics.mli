(** Metrics registry: named counters, gauges and log-scale latency
    histograms, labelled [subsystem/name].

    A registry must be {!install}ed before the instrumented code
    creates its handles (services fetch handles when they start, so:
    install, then boot).  When no registry is installed, every handle
    is a no-op [None] and recording costs one pattern match — metrics
    collection is strictly opt-in.

    The engine itself never touches this module; engine-level
    observability goes through the {!Chorus.Trace} sink.  Metrics are
    for the service layers (kernel, net, applications). *)

type t
(** A registry: a table from [(subsystem, name)] to metric state. *)

val create : unit -> t

val install : t -> unit
(** Make [t] the registry that handle creation binds to: for the
    current run when called from inside one, otherwise for the calling
    domain's ambient context (whence {!Chorus.Engine.start} adopts it
    into the run — install, then boot, as before).  Never visible to
    other domains. *)

val uninstall : unit -> unit

val installed : unit -> t option

val installed_in : Chorus.Ctx.t -> t option
(** The registry bound in an explicit (engine) context — what the
    replay debugger reads while a stepped run is paused. *)

val reset : t -> unit
(** Drop every registered metric (handles bound to them go stale). *)

(** {1 Handles}

    Cheap to create (one hash lookup), deduplicated by
    [(subsystem, name)]: creating the same counter twice returns the
    same underlying cell, so per-client instrumentation aggregates
    naturally.  Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

type counter

type gauge

type histogram

val counter : subsystem:string -> string -> counter

val gauge : subsystem:string -> string -> gauge

val histogram : subsystem:string -> string -> histogram

val incr : counter -> unit

val observe : gauge -> int -> unit
(** Record an instantaneous level (queue depth, live fibers); the
    snapshot reports last, peak and mean of observed values. *)

val record : histogram -> int -> unit
(** Record one latency/size sample (virtual cycles). *)

val live : histogram -> bool
(** Whether the handle is bound to an installed registry —
    instrumentation that must compute a value before recording it can
    skip the computation when [false]. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of { last : int; peak : int; mean : float }
  | Histo of {
      count : int;
      mean : float;
      p50 : int;
      p95 : int;
      p99 : int;
      max : int;
    }

type snapshot = ((string * string) * value) list
(** Sorted by [(subsystem, name)], so deterministic. *)

val snapshot : t -> snapshot

