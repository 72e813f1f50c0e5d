(** Smart cluster client: map discovery, shard routing, leader
    tracking and retry with bounded exponential backoff.

    A client is a plain fabric node with its own {!Chorus_net.Stack}.
    On first use it fetches the {!Shardmap} from a bootstrap node, then
    routes each operation to the owning shard's replicas directly.
    ["L<addr>"] redirects are followed immediately (no backoff — the
    cluster just told us where to go); timeouts and ["R"] retries back
    off exponentially with seed-derived jitter and rotate to the next
    replica, so a crashed leader costs one election's worth of retries,
    not a wedge.  Acked puts ([`Ok]) are committed on a majority and
    survive any single node crash; gets are proposed through the log,
    so reads are linearizable. *)

type t

type breaker_config = { trip_after : int; cooldown : int }
(** Per-node circuit breaker parameters: [trip_after] consecutive
    failures (silent/empty replies, deadline misses) open the node's
    breaker for [cooldown] virtual cycles.  While open, routing steers
    operations to other replicas; at cooldown expiry the breaker goes
    half-open and the next operation to consider the node is the
    probe — success closes the breaker, failure re-opens it for
    another cooldown.  Any response at all (including a leader
    redirect) counts as success: breakers track liveness, not
    leadership. *)

type breaker_state = [ `Closed | `Open | `Half_open ]

val create :
  ?attempts:int -> ?call_timeout:int -> ?breaker:breaker_config ->
  ?op_budget:int -> seed:int -> bootstrap:int list -> Chorus_net.Stack.t -> t
(** [bootstrap] lists node addresses tried in order for map discovery.
    Defaults: [attempts] 10 per operation, [call_timeout] 60k cycles
    per RPC, backoff base 15k doubling to a 120k cap, +-25%
    seed-derived jitter.  [breaker] (default off) arms per-node
    circuit breakers; [op_budget] (default off) gives every operation
    an absolute deadline [now + op_budget] — checked before each
    attempt, with each RPC timeout clamped to the remaining budget —
    so a gray (slow-but-alive) node costs a bounded slice of the
    caller's time instead of the full retry ladder.  Both default to
    off, leaving the client byte-identical to the pre-breaker one. *)

val put : t -> string -> string -> [ `Ok | `Net_fail ]
(** [`Net_fail] means every attempt was exhausted without a response —
    one typed verdict for every give-up, whether the cluster was
    unreachable or every replica timed out.  The operation may or may
    not have taken effect: a lost ack is not a lost write. *)

val get : t -> string -> [ `Found of string | `Miss | `Net_fail ]

val retries : t -> int
(** Operation-level retries performed (not counting the stack's own
    frame retransmissions). *)

val redirects : t -> int
(** ["L<addr>"] leader redirects followed. *)

val ops_failed : t -> int
(** Operations that exhausted every attempt ([`Net_fail]). *)

(** {1 Breaker introspection} *)

val breaker_state : t -> int -> breaker_state
(** The breaker posture of a node address as of now (a node never seen,
    or on a client without breakers, reads [`Closed]).  An open breaker
    whose cooldown has expired reads [`Half_open]. *)

val breaker_trips : t -> int
(** Closed/half-open -> open transitions. *)

val breaker_skips : t -> int
(** Routing decisions that steered an operation off an open node. *)

val breaker_probes : t -> int
(** Open -> half-open transitions (cooldown expiries). *)

val deadline_misses : t -> int
(** Operations failed fast because their [op_budget] deadline passed
    (each also counts in {!ops_failed}). *)

(** {1 Pipelining}

    A pipe keeps up to [depth] operations of one client in flight at
    once, each tagged with a monotonically increasing sequence number,
    and delivers sequence-tagged completions on a channel as they
    finish — the strict call/response round-trip per operation becomes
    a sliding window, which is what lets an open-loop generator drive
    a single connection far past one-op-per-RTT.  Completions may
    arrive out of submission order (redirect/retry histories differ
    per key); the sequence number is the correlation.  One pipe per
    client: the pipe owns the client's in-flight accounting, which the
    [cluster/client<addr>] {!Chorus.Inspect} provider reports. *)

type pipe

type op = Op_put of string * string | Op_get of string

type op_result = [ `Ok | `Found of string | `Miss | `Net_fail ]
(** [`Ok] acks a put; [`Found]/[`Miss] answer a get; [`Net_fail] as in
    {!put}/{!get}. *)

type completion = { seq : int; at : int; result : op_result }
(** [at] is the virtual completion time — latency measurement stays
    exact even when a driver drains completions in arrears. *)

val pipeline : ?depth:int -> t -> pipe
(** [pipeline ~depth t] (default depth 8) opens the sliding window. *)

val submit : pipe -> op -> int
(** Start an operation and return its sequence number.  Blocks only
    while the window is full ([depth] ops already in flight) — the
    submission-side backpressure an open-loop driver leans on. *)

val completions : pipe -> completion Chorus.Chan.t
(** The completion stream: exactly one message per {!submit}, in
    completion order. *)

val inflight : pipe -> int

val inflight_hwm : pipe -> int
(** Highest concurrent in-flight count reached. *)
