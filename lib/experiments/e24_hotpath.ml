(* E24 — the replicated hot path under offered load: batching, leases,
   pipelining (the ROADMAP's "millions of users" item).

   The paper warns that a message-passing multicore OS lives or dies by
   its centralized services; "Research on Scalability of Operating
   Systems on Multicore Processors" (PAPERS.md) insists the proof is a
   throughput/latency curve against offered load, not an assertion.
   This experiment drives the cluster with the open-loop Zipf generator
   (lib/workload/zipf.ml — Poisson arrivals, 10⁶-key Zipf popularity,
   pipelined connections) and compares four postures of the hot path:

   - plain:   per-proposal replication kicks, all reads through the log
   - batched: Raft group commit (batch_window accumulation, wide
              AppendEntries) amortizing the replication round
   - leased:  leader leases serving reads locally, no quorum round
   - both

   Table 1 sweeps offered load at 3 replicas (read-mostly) and shows
   where each posture's throughput plateaus and its p99 blows up.
   Table 2 isolates the write path (write-only load past the plain
   ceiling) at 1/3/5 replicas: group commit must cut cycles/put >= 2x
   at 3 replicas.  Past the ceiling puts time out and shards re-elect,
   so the table counts acked and failed puts and the run's elections,
   and divides by acked puts alone.  Table 3 isolates the read path:
   leased reads vs leader-quorum reads at the same offered load. *)

open Exp_common
module Fiber = Chorus.Fiber
module Fabric = Chorus_net.Fabric
module Cluster = Chorus_cluster.Cluster
module Raft = Chorus_cluster.Raft
module Zipfload = Chorus_workload.Zipf

type point = {
  offered : int;
  replicas : int;
  batched : bool;
  leased : bool;
  completed : int;
  failed : int;
  throughput : float;  (* completed ops per Mcycle *)
  cycles_per_op : int;  (* inverse throughput *)
  p50 : int;
  p99 : int;
  get_p50 : int;
  get_p99 : int;
  put_p99 : int;
  appends : int;  (* AppendEntries RPCs sent, all leaders *)
  group_commits : int;
  leased_reads : int;
  lease_denied : int;
  elections : int;  (* elections started over the run, settle included *)
}

let raft_totals c ~nshards =
  let appends = ref 0
  and commits = ref 0
  and leased = ref 0
  and denied = ref 0 in
  List.iter
    (fun addr ->
      for shard = 0 to nshards - 1 do
        match Cluster.raft_of c ~node:addr ~shard with
        | None -> ()
        | Some r ->
          appends := !appends + Raft.appends_sent r;
          commits := !commits + Raft.group_commits r;
          leased := !leased + Raft.leased_reads r;
          denied := !denied + Raft.lease_denied r
      done)
    (Cluster.addrs c);
  (!appends, !commits, !leased, !denied)

(* One measured point: a fresh cluster + generator per posture so no
   state leaks between postures; everything below the offered load is
   identical across the four. *)
let run_point ?nclients ?(depth = 8) ?duration ?(call_timeout = 60_000)
    ?propose_timeout ?(fabric_latency = 5_000) ~quick ~seed ~replicas
    ~batched ~leased ~offered ~read_fraction () =
  let nshards = 4 in
  let rcfg =
    { (Raft.default_config ~seed) with
      batch_window = (if batched then 10_000 else 0);
      max_append = (if batched then 128 else 16);
      lease = leased }
  in
  let rcfg =
    match propose_timeout with
    | None -> rcfg
    | Some t -> { rcfg with propose_timeout = t }
  in
  (* a slow fabric must not starve raft's own RPC budget *)
  let rcfg =
    if 3 * fabric_latency <= rcfg.Raft.rpc_timeout then rcfg
    else { rcfg with rpc_timeout = 8 * fabric_latency }
  in
  let nclients =
    match nclients with Some n -> n | None -> pick ~quick 8 48
  in
  let duration =
    match duration with Some d -> d | None -> pick ~quick 600_000 3_000_000
  in
  let wcfg =
    { (Zipfload.default_config ~seed:(seed + 11)) with
      Zipfload.nkeys = pick ~quick 100_000 1_000_000;
      nclients;
      depth;
      offered;
      duration;
      read_fraction;
      call_timeout }
  in
  let (res, appends, commits, leased_n, denied, elections), _stats =
    run ~seed ~cores:64 (fun () ->
        let net =
          Fabric.create ~latency:fabric_latency ~loss:0.0 ~seed:(seed + 1) ()
        in
        let c =
          Cluster.create ~raft:rcfg ~nshards ~replication:replicas ~seed
            ~nnodes:replicas net
        in
        Cluster.start c;
        Fiber.sleep 1_000_000;  (* let elections settle *)
        let res =
          Zipfload.run wcfg ~fabric:net ~bootstrap:(Cluster.addrs c)
        in
        let a, g, l, d = raft_totals c ~nshards in
        let elections = Cluster.elections_started c in
        Cluster.stop c;
        (res, a, g, l, d, elections))
  in
  { offered;
    replicas;
    batched;
    leased;
    completed = res.Zipfload.completed;
    failed = res.Zipfload.failed;
    throughput = res.Zipfload.throughput;
    cycles_per_op =
      (let ok = res.Zipfload.completed - res.Zipfload.failed in
       if ok = 0 then 0 else res.Zipfload.elapsed / ok);
    p50 = res.Zipfload.p50;
    p99 = res.Zipfload.p99;
    get_p50 = Chorus_util.Histogram.percentile res.Zipfload.lat_get 50.0;
    get_p99 = Chorus_util.Histogram.percentile res.Zipfload.lat_get 99.0;
    put_p99 = Chorus_util.Histogram.percentile res.Zipfload.lat_put 99.0;
    appends;
    group_commits = commits;
    leased_reads = leased_n;
    lease_denied = denied;
    elections }

let posture_name ~batched ~leased =
  match (batched, leased) with
  | false, false -> "plain"
  | true, false -> "batched"
  | false, true -> "leased"
  | true, true -> "batched+leased"

let offered_sweep ~quick =
  if quick then [ 300; 1200 ] else [ 200; 600; 1800; 4000 ]

(* The load sweep's rows, which BENCH_cluster.json also holds: the four
   postures at each offered load, 3 replicas, 90% reads. *)
let sweep_points ~quick ~seed =
  List.concat_map
    (fun offered ->
      List.map
        (fun (batched, leased) ->
          run_point ~quick ~seed ~replicas:3 ~batched ~leased ~offered
            ~read_fraction:0.9 ())
        [ (false, false); (true, false); (false, true); (true, true) ])
    (offered_sweep ~quick)

(* The write table must drive BOTH postures past their replication
   ceilings or cycles/put just reads back the offered load; and it runs
   on a slow fabric (20k-cycle one-way latency — the fsync/WAN regime
   group commit exists for), where a 16-entry round costs ~2.8k
   cycles/entry but a 128-entry round ~350.  At that depth of queueing
   the client call timeout and the server propose timeout must both
   exceed the queueing delay, or timeout/retry churn — not the
   replication path — sets the measured ceiling.  Its rows at each of
   [replica_counts], plain then batched, write-only at 16,000
   ops/Mcycle. *)
let write_points ~quick ~seed replica_counts =
  List.concat_map
    (fun replicas ->
      List.map
        (fun batched ->
          run_point ~quick ~seed ~replicas ~batched ~leased:false
            ~offered:16_000 ~read_fraction:0.0 ~nclients:(pick ~quick 24 64)
            ~depth:16 ~duration:(pick ~quick 600_000 1_500_000)
            ~call_timeout:800_000 ~propose_timeout:600_000
            ~fabric_latency:20_000 ())
        [ false; true ])
    replica_counts

let run ~quick ~seed =
  let sweep =
    Tablefmt.create
      ~title:
        "E24: throughput and p99 vs offered load (3 replicas, 4 shards, \
         90% reads, Zipf theta 0.99)"
      ~columns:
        [ ("offered ops/Mc", Tablefmt.Right);
          ("posture", Tablefmt.Left);
          ("done", Tablefmt.Right);
          ("fail", Tablefmt.Right);
          ("tput ops/Mc", Tablefmt.Right);
          ("p50", Tablefmt.Right);
          ("p99", Tablefmt.Right);
          ("leased reads", Tablefmt.Right);
          ("group commits", Tablefmt.Right) ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row sweep
        [ string_of_int p.offered;
          posture_name ~batched:p.batched ~leased:p.leased;
          string_of_int p.completed;
          string_of_int p.failed;
          Printf.sprintf "%.0f" p.throughput;
          string_of_int p.p50;
          string_of_int p.p99;
          string_of_int p.leased_reads;
          string_of_int p.group_commits ])
    (sweep_points ~quick ~seed);
  let writes =
    Tablefmt.create
      ~title:
        "E24: write path at saturating load (write-only) — group commit \
         vs per-proposal replication"
      ~columns:
        [ ("replicas", Tablefmt.Right);
          ("posture", Tablefmt.Left);
          ("acked", Tablefmt.Right);
          ("failed", Tablefmt.Right);
          ("elections", Tablefmt.Right);
          ("cycles/put", Tablefmt.Right);
          ("put p99", Tablefmt.Right);
          ("appends", Tablefmt.Right);
          ("entries/append", Tablefmt.Right) ]
  in
  List.iter
    (fun p ->
      let acked = p.completed - p.failed in
      Tablefmt.add_row writes
        [ string_of_int p.replicas;
          posture_name ~batched:p.batched ~leased:false;
          string_of_int acked;
          string_of_int p.failed;
          string_of_int p.elections;
          string_of_int p.cycles_per_op;
          string_of_int p.put_p99;
          string_of_int p.appends;
          (if p.appends = 0 then "-"
           else
             Printf.sprintf "%.1f"
               (float_of_int acked /. float_of_int p.appends)) ])
    (write_points ~quick ~seed (if quick then [ 3 ] else [ 1; 3; 5 ]));
  let readpath =
    Tablefmt.create
      ~title:
        "E24: read path — leader leases vs through-the-log quorum reads \
         (3 replicas, 95% reads)"
      ~columns:
        [ ("posture", Tablefmt.Left);
          ("done", Tablefmt.Right);
          ("tput ops/Mc", Tablefmt.Right);
          ("get p50", Tablefmt.Right);
          ("get p99", Tablefmt.Right);
          ("leased reads", Tablefmt.Right);
          ("lease denied", Tablefmt.Right) ]
  in
  List.iter
    (fun leased ->
      let p =
        run_point ~quick ~seed ~replicas:3 ~batched:true ~leased
          ~offered:(pick ~quick 300 800) ~read_fraction:0.95 ()
      in
      Tablefmt.add_row readpath
        [ posture_name ~batched:true ~leased;
          string_of_int p.completed;
          Printf.sprintf "%.0f" p.throughput;
          string_of_int p.get_p50;
          string_of_int p.get_p99;
          string_of_int p.leased_reads;
          string_of_int p.lease_denied ])
    [ false; true ];
  [ sweep; writes; readpath ]
