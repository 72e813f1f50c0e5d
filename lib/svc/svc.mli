(** The unified service plane: typed service endpoints with bounded
    inboxes and explicit overload policies.

    Paper Section 4 describes the OS as "a collection of services"
    communicating only by messages, and Section 5 sets the goal under
    stress: "aiming for not failing".  Before this module every Chorus
    service was a hand-rolled [Chan.recv] loop over an {e unbounded}
    inbox — overload meant queueing forever and melting latency.  A
    {!t} (request/reply) or {!cast} (one-way) endpoint wraps the inbox
    channel together with a {!config} saying how many requests may
    queue and what happens to the excess:

    - [`Block] — callers block once the inbox is full (backpressure;
      the CSP answer).  With [capacity = 0] the inbox is unbounded and
      a default-configured endpoint is charge-for-charge identical to
      the bare channel pair: an unbounded inbox carrying each request
      with a fresh [Chan.buffered 1] reply channel.
    - [`Reject] — the caller immediately gets a typed busy error and
      the handler never sees the request (admission control).
    - [`Shed_oldest] — the stalest queued request is dropped (its
      caller gets the busy error) and the new one is admitted; fresh
      work wins (the Erlang mailbox-pruning answer).

    Every endpoint registers one uniform metric set —
    [queue_depth] (gauge, sampled on both enqueue and dequeue),
    [queue_hwm] (high-watermark gauge), [service_time] (histogram),
    [rejected] and [shed] (counters) — under its subsystem, and
    {!serve} wraps each request in a {!Chorus_obs.Span}.  All of it is
    free when no metrics registry / trace sink is installed, and none
    of it ever advances virtual time.

    Experiment E21 sweeps offered load past capacity and measures the
    goodput/latency crossover of the three policies. *)

module Chan = Chorus.Chan
module Fiber = Chorus.Fiber

(** {1 Overload policy} *)

type policy = [ `Block | `Reject | `Shed_oldest ]

type config = { capacity : int; policy : policy }
(** [capacity = 0] means unbounded (the policy is then irrelevant and
    must be [`Block]).  [`Reject] and [`Shed_oldest] require
    [capacity >= 1]. *)

val default_config : config
(** [{ capacity = 0; policy = `Block }]: the unbounded legacy
    behaviour; byte-identical to the pre-Svc service loops. *)

val config : ?capacity:int -> ?policy:policy -> unit -> config

exception Busy
(** Raised by {!call} and {!await} when the request was rejected or
    shed. *)

(** {1 Endpoints} *)

type 'msg cast
(** A one-way service endpoint ([Notify]-style inboxes, raft kicks,
    the net stack's port queues). *)

type 'resp reply = [ `Ok of 'resp | `Busy ] Chan.t
(** The reply half of a request: a one-shot buffered channel.  [`Busy]
    is delivered by the overload policy, never by a handler. *)

type ('req, 'resp) t = ('req * 'resp reply) cast
(** A request/reply service endpoint: exactly the paper's
    "[c <- (a, b, c1); r <- c1]" pattern with the inbox governed by a
    {!config}. *)

val cast_create :
  ?config:config -> ?metric_name:string -> ?on_shed:('msg -> unit) ->
  subsystem:string -> label:string -> unit -> 'msg cast
(** Fresh one-way endpoint.  [metric_name] prefixes the uniform metric
    set (["dispatcher.queue_depth"] vs plain ["queue_depth"]) so
    several services can share a subsystem.  [on_shed] observes each
    message dropped by [`Shed_oldest]. *)

val cast_attach :
  ?metric_name:string -> subsystem:string -> label:string -> 'msg Chan.t ->
  'msg cast
(** Wrap an existing channel (the net stack's per-port frame queues)
    in a service endpoint under {!default_config}: the channel keeps
    its own buffering discipline, and the endpoint adds the uniform
    metrics, serve span and crash point. *)

val create :
  ?config:config -> ?metric_name:string -> subsystem:string ->
  label:string -> unit -> ('req, 'resp) t
(** Fresh request/reply endpoint.  Shed requests are answered [`Busy]
    on their reply channel automatically. *)

(** {1 Client side} *)

val offer : ?words:int -> 'msg cast -> 'msg -> [ `Ok | `Busy ]
(** Submit a message under the endpoint's policy.  Under the default
    config this is exactly [Chan.send] (same charges, same words,
    default 2), plus host-side queue-depth sampling. *)

val cast : ?words:int -> 'msg cast -> 'msg -> unit
(** [offer] with the verdict dropped (rejections still count in the
    [rejected] metric). *)

val call : ?words:int -> ('req, 'resp) t -> 'req -> 'resp
(** Send the request with a fresh reply channel, await the reply.
    Under the default config this is charge-for-charge the bare
    [c <- (a, c1); r <- c1] channel pair.  Raises {!Busy} when
    rejected or shed. *)

val call_result :
  ?words:int -> ('req, 'resp) t -> 'req -> [ `Ok of 'resp | `Busy ]
(** {!call} with the busy outcome as a value instead of an
    exception. *)

val call_async : ?words:int -> ('req, 'resp) t -> 'req -> 'resp reply
(** Fire the request and return the reply channel without waiting.  A
    rejected request's reply channel already holds [`Busy].  A caller
    that must not wait forever bounds its own wait (e.g. a
    {!Chan.choose} with {!Chan.after}). *)

val reply_chan : unit -> 'resp reply
(** A fresh one-shot reply channel ([Chan.buffered 1]), for services
    that plumb reply channels inside richer message types. *)

val answer : ?words:int -> 'resp reply -> 'resp -> unit
(** Server half: deliver [`Ok resp] on a hand-plumbed reply channel. *)

val await : 'resp reply -> 'resp
(** Client half of a hand-plumbed call.  Raises {!Busy}. *)

val await_result : 'resp reply -> [ `Ok of 'resp | `Busy ]

(** {1 Server side} *)

val take : 'msg cast -> 'msg
(** Receive the next message (blocking) and sample the queue-depth /
    high-watermark metrics on the dequeue side. *)

val recv_case : 'msg cast -> ('msg -> 'r) -> 'r Chan.case
(** The endpoint as one arm of a {!Chan.choose} (no depth sampling —
    choice commits bypass {!take}). *)

val serve :
  ?words_of_resp:('resp -> int) -> ?until:('req -> 'resp -> bool) ->
  ('req, 'resp) t -> ('req -> 'resp) -> unit
(** Serve forever (run inside a daemon fiber): receive, time the
    handler under a span + the [service_time] histogram, reply with
    [words_of_resp resp] payload words (default 2).  When [until req
    resp] answers [true] the endpoint is closed after the reply and
    the loop returns — the vnode retirement protocol. *)

val serve_cast : 'msg cast -> ('msg -> unit) -> unit
(** One-way flavour of {!serve}. *)

val start :
  ?on:int -> ?priority:Fiber.priority -> ?words_of_resp:('resp -> int) ->
  ?until:('req -> 'resp -> bool) -> ('req, 'resp) t -> ('req -> 'resp) ->
  Fiber.t
(** Spawn a daemon fiber (labelled with the endpoint's label) running
    {!serve}. *)

val start_cast :
  ?on:int -> ?priority:Fiber.priority -> 'msg cast -> ('msg -> unit) ->
  Fiber.t

val starter :
  ?on:int -> ?priority:Fiber.priority -> ?words_of_resp:('resp -> int) ->
  ?until:('req -> 'resp -> bool) -> ('req, 'resp) t -> ('req -> 'resp) ->
  unit -> Fiber.t
(** Restart hook for {!Chorus_kernel.Supervisor}-style child specs:
    because a service's identity is its endpoint, re-running the
    thunk re-attaches a fresh fiber to the same inbox. *)

(** {1 Chaos crash points} *)

val set_crashpoint : (string -> unit) option -> unit
(** Install (or with [None] remove) the ambient crash-point hook.
    {!serve} and {!serve_cast} call it with the endpoint's crash-point
    name, ["subsystem.label"] (e.g. ["chaos.store"]), at every
    {e dequeue boundary} — after a request is taken off
    the inbox, before the handler runs, which is exactly where a crash
    loses the dequeued request.  The hook may raise: the serving fiber
    crashes, and a {!starter}-based supervisor restart re-attaches the
    surviving endpoint.  The chaos engine (lib/chaos) uses this to
    kill named service fibers at chosen cycle windows; with no hook
    installed (the default) the check is a single ref read and the
    plane behaves exactly as before. *)

(** {1 Introspection} *)

val depth : 'msg cast -> int
(** Requests queued right now. *)

val hwm : 'msg cast -> int
(** Highest queue depth ever sampled (enqueue or dequeue side). *)

val served : 'msg cast -> int

val rejected : 'msg cast -> int

val shed : 'msg cast -> int
