(* E25 — tail latency under gray failure: circuit breakers and
   end-to-end deadlines against a slow-but-alive replica.

   The paper's reliability stance ("aim for not failing", S5) is
   usually tested against crashes — but the failure mode that actually
   wrecks tail latency in deployed systems is the *gray* one: a node
   that stays up, answers its peers, and serves some requests, just
   slowly.  Crash detection never fires, so every client keeps sending
   it traffic and eats the timeout ladder.  This experiment makes node
   0 gray on the client plane only — every client->node0 link gets a
   per-link delay fault (Fabric.set_link_faults) while the inter-node
   links stay clean, so raft keeps its leader and the cluster looks
   healthy to itself — and drives the open-loop Zipf generator through
   four client postures:

   - baseline:            retry ladder only (the pre-gray client)
   - deadlines:           per-op budget, RPC timeouts clamped to it
   - breakers:            per-node circuit breakers steering around
                          nodes that keep failing
   - breakers+deadlines:  both defenses

   Table 1 is the sanity half: on a healthy fabric the four postures
   must be indistinguishable (the defenses are free when nothing is
   gray).  Table 2 is the claim: under the gray node, deadlines cap
   the latency tail (slow calls become fast, explicit failures) and
   breakers cut the number of ops that ever wait on the gray node, so
   breakers+deadlines must beat baseline p99 outright. *)

open Exp_common
module Fiber = Chorus.Fiber
module Fabric = Chorus_net.Fabric
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client
module Zipfload = Chorus_workload.Zipf

type point = {
  gray : bool;
  breakers : bool;
  deadlines : bool;
  completed : int;
  failed : int;
  p50 : int;
  p99 : int;
  pmax : int;  (* worst completion latency seen *)
  trips : int;
  skips : int;
  misses : int;  (* deadline misses *)
  link_delayed : int;  (* gray-link deliveries actually delayed *)
}

(* Gray posture of the experiment: node 0 answers its raft peers at
   full speed but [gray_p] of client frames to it arrive
   [gray_cycles] late — far past the client RPC timeout, so an
   affected call burns its timeout and retries. *)
let gray_p = 0.75

let gray_cycles = 150_000

let op_budget = 180_000

let breaker_cfg = { Client.trip_after = 3; cooldown = 250_000 }

let run_point ~quick ~seed ~gray ~breakers ~deadlines () =
  let replicas = 3 in
  let nclients = pick ~quick 8 24 in
  let wcfg =
    { (Zipfload.default_config ~seed:(seed + 11)) with
      Zipfload.nkeys = pick ~quick 50_000 500_000;
      nclients;
      depth = 8;
      offered = pick ~quick 300 600;
      duration = pick ~quick 600_000 2_400_000;
      read_fraction = 0.9;
      op_budget = (if deadlines then Some op_budget else None);
      breaker = (if breakers then Some breaker_cfg else None) }
  in
  let (res, delayed), _stats =
    run ~seed ~cores:64 (fun () ->
        let net =
          Fabric.create ~latency:5_000 ~loss:0.0 ~seed:(seed + 1) ()
        in
        let c =
          Cluster.create ~nshards:4 ~replication:replicas ~seed
            ~nnodes:replicas net
        in
        Cluster.start c;
        Fiber.sleep 1_000_000;  (* let elections settle *)
        if gray then
          (* client NICs attach after the [replicas] node NICs, so
             their addresses are replicas..replicas+nclients-1 *)
          for src = replicas to replicas + nclients - 1 do
            Fabric.set_link_faults net ~src ~dst:0 ~delay:gray_p
              ~delay_cycles:gray_cycles ()
          done;
        let res =
          Zipfload.run wcfg ~fabric:net ~bootstrap:(Cluster.addrs c)
        in
        let delayed = (Fabric.link_stats net).Fabric.link_delayed in
        Cluster.stop c;
        (res, delayed))
  in
  { gray;
    breakers;
    deadlines;
    completed = res.Zipfload.completed;
    failed = res.Zipfload.failed;
    p50 = res.Zipfload.p50;
    p99 = res.Zipfload.p99;
    pmax = Chorus_util.Histogram.percentile res.Zipfload.latency 100.0;
    trips = res.Zipfload.breaker_trips;
    skips = res.Zipfload.breaker_skips;
    misses = res.Zipfload.deadline_misses;
    link_delayed = delayed }

let posture_name ~breakers ~deadlines =
  match (breakers, deadlines) with
  | false, false -> "baseline"
  | false, true -> "deadlines"
  | true, false -> "breakers"
  | true, true -> "breakers+deadlines"

let postures =
  [ (false, false); (false, true); (true, false); (true, true) ]

let table ~title points =
  let t =
    Tablefmt.create ~title
      ~columns:
        [ ("posture", Tablefmt.Left);
          ("done", Tablefmt.Right);
          ("fail", Tablefmt.Right);
          ("p50", Tablefmt.Right);
          ("p99", Tablefmt.Right);
          ("max", Tablefmt.Right);
          ("dl misses", Tablefmt.Right);
          ("trips", Tablefmt.Right);
          ("skips", Tablefmt.Right);
          ("delayed", Tablefmt.Right) ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row t
        [ posture_name ~breakers:p.breakers ~deadlines:p.deadlines;
          string_of_int p.completed;
          string_of_int p.failed;
          string_of_int p.p50;
          string_of_int p.p99;
          string_of_int p.pmax;
          string_of_int p.misses;
          string_of_int p.trips;
          string_of_int p.skips;
          string_of_int p.link_delayed ])
    points;
  t

(* The four postures' points on the healthy fabric or under the gray
   node; BENCH_gray.json holds both. *)
let points ~quick ~seed ~gray =
  List.map
    (fun (breakers, deadlines) ->
      run_point ~quick ~seed ~gray ~breakers ~deadlines ())
    postures

let run ~quick ~seed =
  let healthy = points ~quick ~seed ~gray:false in
  let grayed = points ~quick ~seed ~gray:true in
  [ table
      ~title:
        "E25: healthy fabric — the defenses must cost nothing when \
         nothing is gray (3 replicas, 4 shards, 90% reads)"
      healthy;
    table
      ~title:
        (Printf.sprintf
           "E25: node 0 gray to clients (%.0f%% of frames +%dk cycles) \
            — deadlines cap the tail, breakers steer around it"
           (100. *. gray_p) (gray_cycles / 1000))
      grayed ]
