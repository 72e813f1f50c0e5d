(* A replicated key-value cluster over a lossy interconnect.

   The paper notes its kernel design "is structurally more similar to
   a client/server network application or to a cluster environment
   than to either traditional kernel design".  This example runs that
   application on the same primitives: a three-node cluster of
   Raft-replicated shards, four client nodes hammering it — over a
   fabric that drops 10% of frames.  Retransmission is a choice
   timeout arm; duplicate suppression keeps puts exactly-once.

   Run with:  dune exec examples/kv_cluster.exe *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client

let () =
  let stats =
    Runtime.run
      (Runtime.config ~policy:(Policy.round_robin ()) ~seed:4
         (Machine.mesh ~cores:32))
      (fun () ->
        let net = Fabric.create ~latency:8_000 ~loss:0.10 ~seed:2 () in
        let c =
          Cluster.create ~nshards:4 ~replication:3 ~seed:4 ~nnodes:3 net
        in
        Cluster.start c;
        (* let the replica groups elect their leaders *)
        Fiber.sleep 1_000_000;
        let stacks =
          List.init 4 (fun _ -> Stack.create net (Fabric.attach net ()))
        in
        let ok = ref 0 and failed = ref 0 in
        let workers =
          List.mapi
            (fun id st ->
              Fiber.spawn ~label:(Printf.sprintf "client-%d" id) (fun () ->
                  let kv =
                    Client.create ~seed:(100 + id) ~bootstrap:(Cluster.addrs c)
                      st
                  in
                  for i = 1 to 25 do
                    let k = Printf.sprintf "user:%d:%d" id i in
                    match Client.put kv k (string_of_int (i * i)) with
                    | `Ok -> (
                      match Client.get kv k with
                      | `Found v when v = string_of_int (i * i) -> incr ok
                      | `Found _ | `Miss | `Net_fail -> incr failed)
                    | `Net_fail -> incr failed
                  done))
            stacks
        in
        List.iter (fun f -> ignore (Fiber.join f)) workers;
        Printf.printf "cluster results over a 10%%-loss fabric:\n";
        Printf.printf "  put+get round trips ok : %d\n" !ok;
        Printf.printf "  failed                 : %d\n" !failed;
        Printf.printf "  elections started      : %d\n"
          (Cluster.elections_started c);
        Printf.printf "  leadership changes     : %d\n"
          (Cluster.leader_changes c);
        Printf.printf "  frames sent/dropped    : %d / %d\n"
          (Fabric.frames_sent net) (Fabric.frames_dropped net);
        let rs = Stack.rel_stats (List.hd stacks) in
        Printf.printf "  client0 retransmissions: %d (of %d calls)\n"
          rs.Stack.retransmissions rs.Stack.calls;
        Cluster.stop c)
  in
  Printf.printf "\nsimulated time: %d cycles, %d messages\n"
    stats.Chorus.Runstats.makespan stats.Chorus.Runstats.msgs
