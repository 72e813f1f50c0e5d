(** Per-node protocol stack: port demultiplexing plus a reliable
    request/response protocol over the lossy {!Fabric}.

    Structure follows the paper's model: the demux is the stack's one
    receive fiber, a driver that owns the NIC's receive channel.  It
    offers each request through its served port's
    {!Chorus_svc.Svc} endpoint and hands each reply straight to the
    one-shot channel of the call waiting for it, so a call spawns no
    fiber.  The reliable layer is ordinary client code built from
    [choose] — a retransmission is literally a timeout arm firing.
    Duplicate suppression on the server side uses a bounded
    (peer, seq) cache, so retried requests execute exactly once. *)

type t

val create : Fabric.t -> Fabric.nic -> t
(** Spawn the demux fiber for this NIC: the stack's only fiber.  The
    stack reaches the wire through the NIC alone; the fabric argument
    is unused and stays only so that existing callers, the benchmark
    harness's among them, compile unchanged. *)

val addr : t -> int

(** {1 Reliable request/response} *)

type rel_stats = {
  mutable calls : int;
  mutable retransmissions : int;
  mutable failures : int;  (** gave up after max attempts *)
  mutable duplicates_served : int;  (** server-side replays suppressed *)
  mutable dedup_evictions : int;
      (** (peer, seq) entries dropped from the bounded
          duplicate-suppression caches (FIFO insertion order) *)
}

val rel_stats : t -> rel_stats

val call :
  t -> dst:int -> port:int -> ?timeout:int -> ?attempts:int -> string ->
  string option
(** [call t ~dst ~port req] sends the request and waits for the
    matching reply, retransmitting up to [attempts] times (default 5).
    The first attempt waits [timeout] cycles (default 4x the wire round
    trip heuristic: 50k); each retry backs off exponentially (2x per
    retry, bounded at 8x the base) with a seed-derived +-12.5% jitter
    so concurrent callers de-synchronize.  Every retransmission is also
    counted in the run's {!Chorus.Runstats.t.retries}.  [None] when
    every attempt timed out. *)

val serve : t -> port:int -> (src:int -> string -> string) -> unit
(** Serve requests on [port] forever (run in a daemon fiber): the
    handler's return value is the reply.  This is {!serve_async} with
    the reply sent as soon as the handler returns, so it shares that
    function's duplicate suppression and restart semantics; the
    handler runs in the serving fiber, so a slow request holds up the
    port. *)

val serve_async :
  t -> port:int -> (src:int -> string -> reply:(string -> unit) -> unit) ->
  unit
(** Serve requests on [port] forever (run in a daemon fiber), answering
    through the [reply] callback, so the handler may hand slow requests
    to worker fibers and keep the port loop responsive.  The handler
    itself runs in the serving fiber and must not block.

    Retransmitted requests are deduplicated by (peer, seq): a
    retransmission of an answered request replays the cached reply
    instead of re-running the handler, and one of a request still in
    flight is swallowed (the eventual reply answers it).  The cache
    holds at most 4096 entries per port, evicting in FIFO insertion
    order and counting evictions in {!rel_stats.dedup_evictions}.  The
    cache and the port's endpoint live on the stack, so calling
    [serve_async] again on the same port after the serving fiber died
    resumes the same endpoint with exactly-once semantics intact.

    The port's endpoint is a {!Chorus_svc.Svc} one-way endpoint
    (uniform queue metrics, serve span and crash point) that the demux
    fiber offers the port's frames to; a frame that reaches a port
    nobody serves is dropped. *)
