(** A deterministic Raft-style replication core for one shard.

    Each replica of a shard's replica group runs this state machine on
    its node: randomized-by-seed election timeouts elect a leader;
    the leader replicates a term-tagged command log to its peers over
    {!Chorus_net.Stack.call} (one replicator fiber per follower, the
    paper's driver pattern); an entry is committed once a majority
    acknowledges it, and only committed entries are applied to the
    key-value store or acknowledged to clients.  Elections grant votes
    only to candidates whose log is at least as up to date, so an
    acknowledged write survives any single leader crash.

    Everything stochastic (election timeouts) draws from a replica-local
    seeded {!Chorus_util.Rng}, and all communication rides the
    deterministic engine, so whole-cluster runs — elections, failovers
    and all — are byte-identical for the same seed.

    Crash/restart model: {!reset_volatile} wipes exactly the state Raft
    declares volatile (role, leader hint, peer indexes, client waiters)
    while term, vote and log survive as modeled stable storage. *)

type config = {
  rpc_timeout : int;  (** per-attempt timeout of raft RPCs *)
  propose_timeout : int;  (** client-visible wait for commit+apply *)
  batch_window : int;
      (** group-commit accumulation window in cycles; [0] (default)
          disables batching: every proposal kicks the replicators
          immediately, the pre-batching behaviour bit for bit *)
  max_append : int;
      (** entries per AppendEntries RPC; doubles as the batch-size
          flush trigger when [batch_window > 0] *)
  lease : bool;
      (** leader leases: serve reads locally while a majority has
          acked an append within the minimum election timeout; also
          arms the vote-refusal guard that makes the lease sound
          (followers that heard a leader within it do not vote) *)
  seed : int;
}
(** The timing constants are fixed: heartbeat every 25k cycles,
    election timeout drawn from \[120k, 240k), lease margin 10k. *)

val default_config : seed:int -> config
(** rpc timeout 30k, propose timeout 200k cycles; batching off
    ([batch_window = 0], [max_append = 16]), leases off. *)

type role = Follower | Candidate | Leader

type cmd = Nop | Put of string * string | Get of string

type event =
  | Election_started of { shard : int; node : int; term : int }
  | Leader_won of { shard : int; node : int; term : int }
  | Stepped_down of { shard : int; node : int; term : int }

type t

val create :
  config -> stack:Chorus_net.Stack.t -> raft_port:int -> shard:int ->
  peers:int array -> on_event:(event -> unit) -> t
(** [peers] are the other group members' addresses (exclude self). *)

(** {1 Introspection} *)

val role : t -> role

val term : t -> int

val leader_hint : t -> int
(** Last known leader address, [-1] when unknown. *)

val commit_index : t -> int

val log_length : t -> int

val appends_sent : t -> int

val applied : t -> int

val group_commits : t -> int
(** Batcher flushes performed (0 unless [batch_window > 0]). *)

val leased_reads : t -> int
(** Reads served locally under the leader lease. *)

val lease_denied : t -> int
(** Lease-read attempts that fell back to the quorum path. *)

val lease_valid : t -> bool
(** Whether a leased read would be served right now: leases on, this
    replica leads, its term has committed, and the majority-ack order
    statistic plus the minimum election timeout less the lease margin
    (120k - 10k cycles) is still ahead of virtual now. *)

(** {1 Node integration} *)

val start_timer : t -> register:(Chorus.Fiber.t -> unit) -> Chorus.Fiber.t
(** Spawn the election-timer fiber (daemon) and return it.  Every
    fiber the replica spawns from this lineage (vote gatherers, leader
    replicators) is passed to [register] so the owning node can kill
    them all on a crash. *)

val reset_volatile : t -> unit
(** Crash recovery: demote to follower, forget the leader, drop client
    waiters and invalidate stale fibers of earlier lineages.  Term,
    vote and log persist. *)

val handle_rpc : t -> src:int -> op:char -> Wire.reader -> string
(** Dispatch one raft RPC ([op] is ['V'] request-vote or ['E']
    append-entries; the reader is positioned after the shard field).
    Never blocks; called from the node's raft-port serve loop.
    Raises {!Wire.Malformed} on a bad payload. *)

val read_local :
  t -> string -> [ `Value of string option | `No_lease ]
(** Serve a read from the local store under the leader lease, without
    a quorum round: [`Value] is the committed value ([None] = miss)
    and is linearizable by the lease argument (DESIGN D13); [`No_lease]
    means the caller must fall back to {!propose} — always the answer
    when [config.lease] is off or this replica is not leading.  Charges
    one apply's worth of work on success; never blocks on the net. *)

val propose : t -> cmd -> [ `Ok of string | `Not_leader of int | `Retry ]
(** Submit a command on the leader and wait until it is applied (or
    until [propose_timeout]).  [`Ok payload] carries the apply result
    ("A" for puts, "F<v>"/"M" for gets); [`Not_leader hint] redirects;
    [`Retry] means leadership was lost or the wait timed out — the
    entry may or may not commit later, so callers must treat it as
    unacknowledged.  Blocks: call from a worker fiber. *)
