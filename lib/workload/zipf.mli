(** Open-loop Zipf workload generator for the replicated cluster —
    the "millions of users" driver.

    Simulated client connections issue Zipf-distributed key
    operations at exponentially-distributed instants (a Poisson
    arrival process at the configured offered load), independent of
    how fast the cluster answers: a saturated cluster does not slow
    the generator down, it grows the latency tail.  Each client
    pipelines up to [depth] operations ({!Chorus_cluster.Client}'s
    sliding window); latency is measured from the {e scheduled} issue
    instant to the completion stamp, so window-full queueing counts.
    Keys are drawn with YCSB-ish Zipf skew 0.99; puts write 16-byte
    values.

    Distinct from {!Chorus_util.Zipf} (the bare rank distribution,
    which this module samples for key popularity). *)

type config = {
  nkeys : int;  (** key-space size (ranks map to keys ["k%07d"]) *)
  nclients : int;  (** simulated client connections *)
  depth : int;  (** pipeline window per client *)
  offered : int;  (** total offered load, ops per million cycles *)
  duration : int;  (** issue window in cycles *)
  read_fraction : float;  (** fraction of ops that are gets *)
  call_timeout : int;
      (** per-RPC client timeout; raise it past the expected queueing
          delay when measuring capacity at deep saturation, or the
          client's own timeout/retry churn becomes the bottleneck *)
  op_budget : int option;
      (** per-operation deadline budget handed to each
          {!Chorus_cluster.Client.create} (default [None] = off) *)
  breaker : Chorus_cluster.Client.breaker_config option;
      (** per-node circuit breakers for each client (default [None]) *)
  seed : int;
}

val default_config : seed:int -> config
(** 10⁶ keys, 64 clients × depth 8, 400 ops/Mcycle over a
    2M-cycle window, 90% reads. *)

type result = {
  completed : int;  (** every submitted op completes before [run] returns *)
  failed : int;  (** [`Net_fail] verdicts (submitted ops that gave up) *)
  elapsed : int;  (** cycles from generator start to last completion *)
  throughput : float;  (** completed ops per million cycles *)
  p50 : int;  (** completion latency percentiles, cycles *)
  p99 : int;
  latency : Chorus_util.Histogram.t;
  lat_get : Chorus_util.Histogram.t;  (** read-path latencies alone *)
  lat_put : Chorus_util.Histogram.t;  (** write-path latencies alone *)
  breaker_trips : int;
      (** circuit-breaker trips summed over all clients (0 when
          [breaker] is [None]) *)
  breaker_skips : int;  (** routing decisions steered off open nodes *)
  deadline_misses : int;
      (** ops failed fast on the [op_budget] deadline (0 when off) *)
}

val run :
  config -> fabric:Chorus_net.Fabric.t -> bootstrap:int list -> result
(** Attach [nclients] fresh stacks to the fabric, drive the load, and
    block until every submitted operation has completed (the cluster
    must already be running).  Deterministic for a given config.  Call
    from the main fiber of a running engine. *)
