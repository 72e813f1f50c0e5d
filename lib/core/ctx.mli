(** Per-run context: typed slots replacing process-global mutable state.

    Before this module existed, the Inspect provider registry, the
    metrics registry, the ambient trace factory and the chaos
    crash-point hook were plain top-level [ref]s — which made two
    engines in one process (and therefore any parallel campaign
    running on OCaml 5 domains) impossible.  They are now {e slots}
    bound in a context, and there are two kinds of context:

    - the {e ambient} context, one per domain (via [Domain.DLS]),
      holding bindings made outside any run — e.g. a test installing a
      metrics registry before calling [Runtime.run];
    - the {e engine} context, one per {!Engine.t}, holding the
      bindings of that run.

    While an engine is stepping events its context is {e active} on
    the stepping domain: {!set}/{!get}/{!clear} target it, so
    registration code called from inside a run keeps its arity and
    binds per-engine state automatically.  Outside any stepping, the
    same calls target the domain's ambient context.  {!Engine.start}
    {!adopt_ambient}s the ambient bindings into the engine context, so
    the install-then-run idiom behaves exactly as it did with
    globals — but two concurrent engines no longer share anything. *)

type t
(** A context: a small store of slot bindings. *)

type 'a slot
(** A typed key.  Create one per piece of formerly-global state. *)

val slot : string -> 'a slot
(** [slot name] allocates a fresh slot.  [name] is for diagnostics
    only; identity is the slot value itself. *)

val create : unit -> t

(** {1 Explicit operations} *)

val set_in : t -> 'a slot -> 'a -> unit

val get_in : t -> 'a slot -> 'a option

(** {1 Ambient / active resolution}

    These are what the formerly-global [install]/[installed] style
    entry points now call: they read and write the {e active} engine
    context when the calling domain is stepping an engine, and the
    domain's ambient context otherwise. *)

val set : 'a slot -> 'a -> unit

val clear : 'a slot -> unit

val get : 'a slot -> 'a option

val activate : t option -> t option
(** [activate ctx] makes [ctx] the active context for the calling
    domain and returns the previous value (restore it when done).
    Used by {!Engine.step_until}; user code should not need it. *)

val adopt_ambient : t -> unit
(** Copy every ambient binding not already present into the context.
    Called once by {!Engine.start}. *)

val with_clean_ambient : (unit -> 'a) -> 'a
(** Run with a fresh, empty ambient context and no active engine
    context, restoring the previous state afterwards.  The domain pool
    brackets the caller's worker stint with this so spawned and caller
    workers observe identical ambient state. *)
