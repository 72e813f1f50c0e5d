(** Single-fiber disk driver.

    Paper Section 4: "it is also almost certainly desirable to give
    each device driver its own, single, thread.  Drivers would receive
    and queue requests from elsewhere in the kernel; the code to
    process the requests can then be written as simple active
    procedural code, with no need for further synchronization except to
    wait for interrupts."

    Exactly that: one fiber owns the device, requests arrive on its
    endpoint, the body is straight-line code, and the device-busy
    interval is a [sleep] (the completion wake-up standing in for the
    interrupt).  No locks exist in this module because none are
    needed. *)

type req = Read of int | Write of int * bytes

type resp = Data of bytes | Done | Io_fail

exception Io_error
(** A transient read fault (see {!set_read_fault}) surfaced by
    {!read}. *)

type t

val start : ?priority:Chorus.Fiber.priority -> unit -> t
(** Spawn the driver (a daemon fiber) for the {!Chorus_machine.Diskmodel}
    device, optionally at interrupt-style [High] priority.  The
    request inbox is unbounded (backpressure). *)

val read : t -> int -> bytes
(** [read t block] round-trips a read request; returns a copy of the
    block (zero-filled when never written).  Raises {!Io_error} when
    the device returned a transient read fault. *)

val read_result : t -> int -> (bytes, [ `Io_error ]) result
(** {!read} with the fault as a value — the retrying-caller flavour
    ({!Bcache} uses it for its bounded-backoff refill path). *)

val write : t -> int -> bytes -> unit

val set_read_fault : t -> ?p:float -> ?seed:int -> unit -> unit
(** Make each read independently fail with probability [p] (default
    [0.], i.e. off — the chaos engine's disk-fault window switch).  A
    faulted read still charges the full seek+transfer service time;
    only the data is lost.  Faults draw from the device's own seeded
    RNG ([seed] reseeds it), never from the run's, and only while
    [p > 0], so runs with faults off are byte-identical to a device
    without the knob. *)

val read_errors : t -> int
(** Transient read faults delivered so far. *)

val reads : t -> int

val writes : t -> int

val max_queue : t -> int
(** High-water mark of the request queue (the endpoint's [queue_hwm]),
    for utilization analysis. *)

val max_concurrency : t -> int
(** Requests being serviced simultaneously inside the driver body —
    invariantly 1 for a single-threaded driver; tests assert it. *)
