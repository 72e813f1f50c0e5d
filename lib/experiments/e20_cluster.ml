(* E20 — the chip as a distributed system, taken literally (Sections 1
   and 5).

   The paper argues a multicore OS "is structurally more similar to a
   client/server network application" and that, following Erlang, the
   goal should be "aiming for not failing" rather than never crashing.
   This experiment composes both: a sharded, replicated KV cluster
   (lib/cluster) runs over a lossy fabric while a fault plan crashes
   whole nodes; a smart client keeps issuing writes and reads through
   elections and node restarts.

   Table 1 measures end-to-end availability under combined frame loss
   and node crashes, with the supervisor healing crashed nodes.
   Table 2 measures the data-plane failover window: cycles from a
   leader kill until its shard answers operations again (the mean over
   64 kills, one per seed), plus steady throughput, as the replica
   group widens (N = 1, 3, 5). *)

open Exp_common
module Fiber = Chorus.Fiber
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Shardmap = Chorus_cluster.Shardmap
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client
module Chaos = Chorus_chaos.Chaos
module Schedule = Chorus_chaos.Schedule

let mk ~nshards ~loss ~seed ~nnodes ~replication net_seed =
  let net = Fabric.create ~latency:5_000 ~loss ~seed:net_seed () in
  let c = Cluster.create ~nshards ~replication ~seed ~nnodes net in
  Cluster.start c;
  let cstack = Stack.create net (Fabric.attach net ~label:"client" ()) in
  let client = Client.create ~seed ~bootstrap:(Cluster.addrs c) cstack in
  (c, client)

(* The availability driver: boot [nnodes] nodes serving [nshards]
   shards x [replication] over a fabric losing [loss] of its frames,
   put [ops] keys while [crashes] node kills land at exponentially
   spaced times (mean [crash_gap] cycles), then read every acked key
   back, and return what the run saw.  E20's table and [chorus_sim
   cluster] run it. *)
type availability = {
  acked : int;
  unavailable : int;  (** puts that failed *)
  lost_acked : int;  (** acked keys the read-back missed *)
  crashes : int;  (** node-down events the failure detector saw *)
  restarts : int;
  retries : int;
  redirects : int;
  elections : int;
  leader_changes : int;
  leaders : int list;  (** each shard's leader at the end *)
}

let availability ~seed ~nnodes ~nshards ~replication ~ops ~loss ~crashes
    ~crash_gap =
  run ~seed ~cores:32 (fun () ->
      let c, client = mk ~nshards ~loss ~seed ~nnodes ~replication (seed + 1) in
      Fiber.sleep 1_000_000;
      let addrs = Array.of_list (Cluster.addrs c) in
      let kill n at =
        Schedule.Kill_node { node = addrs.((n + 1) mod Array.length addrs); at }
      in
      let clear =
        Chaos.arm ~cluster:c (crash_plan ~seed ~mean:crash_gap crashes kill)
      in
      let key i = Printf.sprintf "key-%04d" i in
      let acked = ref [] and unavailable = ref 0 in
      for i = 0 to ops - 1 do
        match Client.put client (key i) (string_of_int i) with
        | `Ok -> acked := i :: !acked
        | `Net_fail -> incr unavailable
      done;
      clear ();
      Fiber.sleep 1_000_000;
      let lost_acked = ref 0 in
      List.iter
        (fun i ->
          match Client.get client (key i) with
          | `Found v when v = string_of_int i -> ()
          | `Found _ | `Miss | `Net_fail -> incr lost_acked)
        !acked;
      let r =
        { acked = List.length !acked;
          unavailable = !unavailable;
          lost_acked = !lost_acked;
          crashes = Cluster.node_crashes c;
          restarts = Cluster.restarts c;
          retries = Client.retries client;
          redirects = Client.redirects client;
          elections = Cluster.elections_started c;
          leader_changes = Cluster.leader_changes c;
          leaders = List.init nshards (Cluster.leader_of c) }
      in
      Cluster.stop c;
      r)

let nines availability =
  if availability >= 1.0 then 9.9 else -.log10 (1.0 -. availability)

(* One failover: crash the shard-0 leader and poll until the shard
   answers again; also measure steady put throughput for the group
   size. *)
let failover_once ~quick ~seed ~nnodes =
  let replication = min 3 nnodes in
  let ops = pick ~quick 60 200 in
  let (window, tput_ops, acked), stats =
    run ~seed ~cores:32 (fun () ->
        let c, client =
          mk ~nshards:8 ~loss:0.0 ~seed ~nnodes ~replication (seed + 3)
        in
        Fiber.sleep 1_000_000;
        (* steady-state throughput *)
        let t0 = Fiber.now () in
        let acked = ref 0 in
        for i = 0 to ops - 1 do
          match Client.put client (Printf.sprintf "w%d" i) "x" with
          | `Ok -> incr acked
          | `Net_fail -> ()
        done;
        let t1 = Fiber.now () in
        let window =
          if nnodes < 3 then 0  (* no failover possible below quorum 2 *)
          else begin
            let victim = Cluster.leader_of c 0 in
            Cluster.crash_node c victim;
            let crash_at = Fiber.now () in
            (* the shard is back once a put on it is acked again; keys
               are picked to land on shard 0 *)
            let key =
              let rec find i =
                if Shardmap.shard_of_key (Cluster.map c)
                     (Printf.sprintf "probe-%d" i)
                   = 0
                then Printf.sprintf "probe-%d" i
                else find (i + 1)
              in
              find 0
            in
            let rec probe () =
              match Client.put client key "back" with
              | `Ok -> Fiber.now () - crash_at
              | `Net_fail -> probe ()
            in
            probe ()
          end
        in
        let r = (window, t1 - t0, !acked) in
        Cluster.stop c;
        r)
  in
  ignore stats;
  (window, tput_ops, acked, ops)

(* Leader kills per group width: one kill's window swings with where
   its election timers happened to stand, so the table reports the
   mean window over this many kills, one per seed from the run's. *)
let failover_kills = 64

(* One row of the failover table. *)
type failover_row = {
  nodes : int;
  puts_acked : int;
  puts_issued : int;
  cycles_per_put : int;  (* steady-state cycles per issued put *)
  window : int option;  (* mean failover window; none below quorum 2 *)
}

(* The failover table's row for [nnodes]: steady throughput at [seed],
   and the mean failover window over [failover_kills] kills. *)
let failover_row ~quick ~seed nnodes =
  let window, tput_cycles, acked, ops = failover_once ~quick ~seed ~nnodes in
  let window =
    if window = 0 then None
    else begin
      let total = ref window in
      for k = 1 to failover_kills - 1 do
        let w, _, _, _ = failover_once ~quick ~seed:(seed + k) ~nnodes in
        total := !total + w
      done;
      Some (!total / failover_kills)
    end
  in
  { nodes = nnodes;
    puts_acked = acked;
    puts_issued = ops;
    cycles_per_put = tput_cycles / max 1 ops;
    window }

(* The failover table's rows, which BENCH_cluster.json also holds. *)
let failover_rows ~quick ~seed =
  List.map (failover_row ~quick ~seed) [ 1; 3; 5 ]

(* The availability table's rows: (frame loss, what the run saw). *)
let availability_rows ~quick ~seed =
  List.map
    (fun (loss, crash) ->
      let a, _ =
        availability ~seed ~nnodes:5 ~nshards:8 ~replication:3
          ~ops:(pick ~quick 120 400) ~loss
          ~crashes:(if crash then pick ~quick 4 10 else 0)
          ~crash_gap:(pick ~quick 400_000 600_000)
      in
      (loss, a))
    [ (0.0, false); (0.01, false); (0.01, true); (0.03, true) ]

let run ~quick ~seed =
  let avail =
    Tablefmt.create
      ~title:
        "E20: cluster availability under frame loss + node crashes (5 \
         nodes, 8 shards, 3 replicas)"
      ~columns:
        [ ("loss", Tablefmt.Right);
          ("crashes", Tablefmt.Right);
          ("acked", Tablefmt.Right);
          ("unavail", Tablefmt.Right);
          ("availability", Tablefmt.Right);
          ("nines", Tablefmt.Right);
          ("lost acked writes", Tablefmt.Right);
          ("restarts", Tablefmt.Right);
          ("client retries", Tablefmt.Right) ]
  in
  List.iter
    (fun (loss, a) ->
      let avail_f =
        float_of_int a.acked /. float_of_int (a.acked + a.unavailable)
      in
      Tablefmt.add_row avail
        [ Printf.sprintf "%.0f%%" (100.0 *. loss);
          string_of_int a.crashes;
          string_of_int a.acked;
          string_of_int a.unavailable;
          Printf.sprintf "%.5f" avail_f;
          Tablefmt.cell_float (nines avail_f);
          string_of_int a.lost_acked;
          string_of_int a.restarts;
          string_of_int a.retries ])
    (availability_rows ~quick ~seed);
  let failover =
    Tablefmt.create
      ~title:"E20: failover window and throughput vs replica-group width"
      ~columns:
        [ ("nodes", Tablefmt.Right);
          ("puts acked", Tablefmt.Right);
          ("cycles/put", Tablefmt.Right);
          ("mean failover window (cycles)", Tablefmt.Right) ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row failover
        [ string_of_int r.nodes;
          Printf.sprintf "%d/%d" r.puts_acked r.puts_issued;
          string_of_int r.cycles_per_put;
          (match r.window with
          | None -> "n/a (no quorum peer)"
          | Some w -> string_of_int w) ])
    (failover_rows ~quick ~seed);
  [ avail; failover ]
