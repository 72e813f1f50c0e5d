(** A sharded, replicated, self-healing key-value cluster.

    [create] attaches [nnodes] NICs to a {!Chorus_net.Fabric}, derives
    the {!Shardmap} every party agrees on, and builds one {!Raft}
    replica per (node, owned shard).  [start] boots every node under a
    {!Chorus_kernel.Supervisor}: each node is a supervised child whose
    root fiber anchors its serve loops, election timers and in-flight
    request workers.

    Failure detection and failover are layered: Raft followers detect a
    silent leader through missed heartbeats and elect a replacement
    (data-plane failover, bounded by the election timeout), while the
    supervisor detects the dead node fiber and restarts the whole node
    (control-plane healing — the restarted replica rejoins as a
    follower with its log intact, modeling recovery from stable
    storage).  Membership transitions and leadership changes are
    published to the optional {!Chorus_kernel.Notify} hub as [Custom]
    events ["cluster:node<a>:up"], ["cluster:node<a>:down"] and
    ["cluster:shard<s>:leader:<a>"].

    Wire protocol on {!client_port} (length-prefixed via {!Wire}):
    ['M'] fetches the encoded shard map; ['P' key value] and ['G' key]
    are routed ops answered ["A"] (put acked), ["F<v>"]/["M"]
    (get found / miss), ["L<addr>"] (not leader, hint; [-1] unknown),
    ["R"] (commit lost or timed out — retry), ["X"] (wrong node or
    malformed).  Replication RPCs ride a second, internal port. *)

val client_port : int
(** 7000 *)

type t

val create :
  ?raft:Raft.config -> ?notify:Chorus_kernel.Notify.t -> nshards:int ->
  replication:int -> seed:int -> nnodes:int -> Chorus_net.Fabric.t -> t
(** Attach the nodes and build their replicas.  Nothing runs until
    {!start}.  [raft] defaults to {!Raft.default_config} with [seed]. *)

val start : ?max_restarts:int -> ?window:int -> t -> unit
(** Boot all nodes under a [One_for_one] supervisor (defaults:
    [max_restarts] 100 within [window] 50M cycles).  Call from inside
    a run. *)

val stop : t -> unit

val map : t -> Shardmap.t

val addrs : t -> int list
(** Node addresses, ascending. *)

val node_up : t -> int -> bool
(** By address. *)

val crash_node : t -> int -> unit
(** Fault injection: kill the node's root fiber (by address).  The
    monitor marks it down, reaps its fibers, and the supervisor
    restarts it. *)

val leader_of : t -> int -> int
(** [leader_of t shard]: address of the replica currently acting as
    leader, or [-1] when the shard has none (mid-election). *)

(** {1 Introspection for experiments and tests} *)

val elections_started : t -> int

val leader_changes : t -> int

val node_crashes : t -> int
(** Node-down events observed by the failure detector. *)

val restarts : t -> int
(** Supervisor restarts performed so far (0 before {!start}). *)

val raft_of : t -> node:int -> shard:int -> Raft.t option
(** The replica state machine a node runs for a shard, if it owns
    one.  For white-box assertions in tests. *)
