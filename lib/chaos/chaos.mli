(** The chaos engine: deterministic fault-space campaigns with
    linearizability and recovery oracles.

    Paper Section 5 sets the reliability goal — following Erlang,
    "aiming for {e not failing}" — and Section 4's observation that the
    kernel resembles "a client/server network application" means the
    right test discipline is the distributed-systems one: inject
    faults, record what the {e clients} observed, and check the
    observations against the specification.  Because every Chorus run
    is a pure function of its seed, chaos testing here is stronger
    than Jepsen on real hardware: a fault plan is a {!Schedule.t}
    value, every run replays byte-identically from its schedule, and a
    failing schedule shrinks to a minimal reproducer by re-running
    subschedules ({!shrink}) — FoundationDB's simulation discipline,
    not spray-and-pray.

    A scenario is described once, as an {!entry} of {!scenarios}: its
    name, its fault palette and its body.  The campaign, the CLI's
    [--<name>-runs] flags, replay's [--scenario] names and the tests
    all derive from that list, so adding a scenario is one entry.  Five
    are registered, in campaign task order:

    - {!Disk} ([disk]): a supervised KV store over {!Chorus_kernel.Bcache} and
      {!Chorus_kernel.Blockdev} on one 8-core node.  Faults: service
      fiber kills at the [chaos.store] crash point (dequeue boundary —
      the in-flight request dies with the fiber) and transient
      block-device read-error windows.
    - {!Kv} ([kv], alias [cluster]): the full replicated cluster (3 nodes, 2 shards,
      replication 3) over the fabric.  Faults: whole-node crashes plus
      fabric loss / duplication / reordering / delay windows.
    - {!Projfs} ([projfs]): a projected mount ({!Chorus_projfs.Projfs}) hydrating
      a 128-file catalog from a supervised provider node over the
      fabric.  Faults: provider serving-fiber kills at its dequeue
      boundary (mid-hydration death; the supervisor re-serves the
      port) plus fabric loss / delay windows.  The {e placeholder
      invariant} — every read is fully hydrated or cleanly failed,
      never torn — rides on the linearizability oracle: each reachable
      file is seeded into the history as written-once with its exact
      catalog contents, so any torn or fabricated hydration is a read
      of a never-written value.
    - {!Kv_lease} ([lease], alias [kv-lease]): the {!Kv} topology and workload, but the raft
      groups run the batched, leased hot path (group commit plus
      leader leases serving reads locally).  Fault generation is
      biased to the lease hazards — leader kills and partition-ish
      fabric windows (loss, delay) — so the linearizability oracle is
      pointed straight at the stale-read risk a lease introduces: a
      deposed leader answering a local read after a newer acked write
      would violate on the spot.
    - {!Gray} ([gray]): the {!Kv} topology and workload under {e gray} failure —
      per-link fault windows ({!Schedule.Link_delay},
      {!Schedule.Partition}) that make one node slow-but-alive or
      unreachable in one direction only, while the workload clients
      defend themselves with per-node circuit breakers and per-op
      deadline budgets ({!Chorus_cluster.Client.create}'s [breaker] /
      [op_budget]).  A fifth, fail-fast {e liveness} oracle runs
      beside linearizability: every workload operation must return —
      complete or fail — within its deadline budget plus a stated
      slack; an op that outlives it hung somewhere the deadline
      machinery should have cut.

    After every run, four oracles:

    + {e linearizability} — the per-key Wing-Gong check ({!Lin}) over
      the client-recorded history, lost writes allowed to take effect
      anytime-or-never;
    + {e durability} — no acknowledged write may vanish: the
      post-recovery read of each key must see a written value;
    + {e recovery} — after the last fault window closes, the service
      plane must answer again within a stated bound (supervised
      restarts actually healed the system);
    + {e quiescence} — the run winds down to no more live fibers than
      it started with and no requests stuck in inboxes (nothing
      leaked). *)

type scenario = Disk | Kv | Kv_lease | Projfs | Gray

type outcome = {
  digest : string;
      (** hex digest of the full observable record (history, fault and
          recovery counters, violations).  Two runs of the same
          schedule are byte-identical iff their digests are equal —
          the replay oracle. *)
  violations : string list;  (** empty = all oracles passed *)
  injected : int;  (** faults that actually fired *)
  ops : int;  (** client operations recorded in the history *)
  leased_reads : int;
      (** reads the leaders served locally under a lease ({!Kv_lease}
          only; 0 elsewhere).  A green lease run that never actually
          served a leased read proves nothing, so tests assert on
          this.  Counters reset when a crashed node restarts — the
          total undercounts, never overcounts. *)
}

type prepared = {
  pconfig : Chorus.Runtime.config;
      (** engine configuration for the scenario (no trace sink) *)
  pmain : unit -> unit;
      (** the scenario body: boot, fault injection, workload, oracles *)
  pfinish : unit -> outcome;
      (** assemble digest + violations — only meaningful after [pmain]
          ran to completion under {!Chorus.Runtime.run} *)
}

type entry = {
  scenario : scenario;
  name : string;
      (** canonical name: the CLI's [--<name>-runs] flag, replay's
          [--scenario] value and every printed scenario label *)
  aliases : string list;  (** other names {!of_name} accepts *)
  doc : string;  (** one line: what runs, under which faults *)
  default_runs : int;  (** schedules the [chaos] command explores *)
  prepare : corrupt:bool -> Schedule.t -> prepared;  (** see {!prepare} *)
  faults : Chorus_util.Rng.t -> Schedule.fault;
      (** the fault palette: one draw per fault {!gen} places *)
}

val scenarios : entry list
(** The registry, one entry per scenario, in campaign task order:
    disk, kv, projfs, lease, gray. *)

val name : scenario -> string
(** The registered canonical name. *)

val of_name : string -> scenario option
(** Look a scenario up by canonical name or alias. *)

val prepare : ?corrupt:bool -> scenario -> Schedule.t -> prepared
(** The scenario split into its replayable phases.  [run_one] is
    [prepare] composed with a full run; the time-travel debugger
    ({!Chorus_debug.Replay}) instead drives [pmain] through
    {!Chorus.Engine.start} / {!Chorus.Engine.run_until} to pause at an
    arbitrary virtual time and snapshot live state.  A caller that
    does not run [pmain] to completion must clear the ambient
    crash-point hook ({!Chorus_svc.Svc.set_crashpoint}) itself. *)

val run_one : ?corrupt:bool -> scenario -> Schedule.t -> outcome
(** Run one schedule and check every oracle.  [corrupt] (default
    false) appends a fabricated read of a never-written value to the
    history — a deliberately broken oracle input used by {!selftest}
    to prove violations are actually caught. *)

val gen : scenario -> seed:int -> index:int -> Schedule.t
(** The campaign's schedule enumerator: deterministic in
    [(seed, index)].  Index 0 is always the fault-free schedule (the
    sanity point); higher indices carry 1–3 faults with
    seed-derived kinds, windows and probabilities. *)

val shrink : ?corrupt:bool -> scenario -> Schedule.t -> Schedule.t
(** Greedy ddmin-lite: repeatedly drop any single fault whose removal
    keeps the schedule violating, to a fixpoint.  Returns the input
    unchanged if it does not violate. *)

type violation = {
  vscenario : scenario;
  schedule : Schedule.t;  (** as explored *)
  minimal : Schedule.t;  (** after {!shrink} *)
  first : string;  (** first oracle violation message *)
  replay_identical : bool;
      (** the schedule re-ran to the same digest and the minimal
          schedule still violates *)
}

type report = {
  runs : int;
  total_ops : int;
  faults_injected : int;
  kinds : (string * int) list;
      (** faults explored per {!Schedule.kind}, alphabetical *)
  violations : violation list;
  campaign_digest : string;
      (** hex digest over every run's outcome digest in task order —
          two campaigns merged identically iff these are equal, which
          is how the N-domain determinism gate compares shardings *)
}

val campaign : ?domains:int -> seed:int -> (scenario * int) list -> report
(** [campaign ~seed runs] explores, for each [(scenario, n)] in list
    order, that scenario's {!gen} schedules [0 .. n-1], checking every
    oracle after every run; violations are replay-verified and shrunk.
    Task order is list order, so the campaign digest depends on it.
    [domains] (default 1) shards the runs across a {!Chorus_par.Pool}:
    every run is an independent engine with its own context, and
    results merge in task order, so the report — digest included — is
    byte-identical at any domain count. *)

type selftest_result = {
  caught : bool;  (** the planted violation was detected *)
  minimal_faults : int;
      (** faults left after shrinking — 0, since the planted violation
          does not depend on any injected fault *)
  st_replay_identical : bool;
      (** two runs of the minimal schedule: same digest, same
          violations *)
}

val selftest : seed:int -> selftest_result
(** End-to-end oracle validation: run a faulty schedule with
    [~corrupt:true], confirm the checker flags it, shrink it, and
    replay the minimal schedule byte-identically.  Guards against the
    quietest failure mode a checker has — passing everything. *)
