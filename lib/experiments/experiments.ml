module Tablefmt = Chorus_util.Tablefmt

type t = {
  id : string;
  title : string;
  claim : string;
  run : quick:bool -> seed:int -> Tablefmt.t list;
}

let all =
  [ { id = "e1";
      title = "Primitive costs";
      claim =
        "sending a message is an action comparable in scope to making a \
         procedure call (S3)";
      run = E01_primitives.run };
    { id = "e2";
      title = "Syscall entry mechanisms";
      claim = "no longer necessary to transition to kernel mode (S4)";
      run = E02_syscalls.run };
    { id = "e3";
      title = "File-server scaling";
      claim =
        "locks and shared memory do not scale to hundreds of cores (S1)";
      run = E03_scaling.run };
    { id = "e4";
      title = "Channel plumbing";
      claim = "move the data directly to its destination (S3)";
      run = E04_plumbing.run };
    { id = "e5";
      title = "Blocking vs buffered send";
      claim = "non-blocking send is probably faster (S3)";
      run = E05_buffering.run };
    { id = "e6";
      title = "Choice implementations";
      claim = "implementing choice effectively is difficult (S5)";
      run = E06_choice.run };
    { id = "e7";
      title = "Async notification";
      claim = "signals must abandon, unwind and redo kernel work (S3.1)";
      run = E07_signals.run };
    { id = "e8";
      title = "Thread placement";
      claim = "which threads to place on which cores (S5)";
      run = E08_placement.run };
    { id = "e9";
      title = "Service granularity";
      claim = "a thread per page would be too many threads (S5)";
      run = E09_granularity.run };
    { id = "e10";
      title = "Supervision and availability";
      claim = "aim for not failing, like Erlang's nine nines (S5/S1)";
      run = E10_supervision.run };
    { id = "e11";
      title = "Peer vs hierarchical structure";
      claim = "GUIs want peer message structure (S3.1)";
      run = E11_gui.run };
    { id = "e12";
      title = "LibOS aggressive design";
      claim = "run applications directly on a bare core (S4)";
      run = E12_libos.run };
    { id = "e13";
      title = "Map/Reduce shared-nothing";
      claim = "Map/Reduce is based on a shared-nothing model (S1)";
      run = E13_mapred.run };
    { id = "e14";
      title = "Protocol verification";
      claim = "defined protocols offer static verification (S4)";
      run = E14_verification.run };
    { id = "e15";
      title = "Message-cost sensitivity";
      claim =
        "ablation: how cheap must messages be for the architecture to \
         win? (S4's hardware-support supposition)";
      run = E15_sensitivity.run };
    { id = "e16";
      title = "Topology ablation";
      claim = "ablation: interconnect shape vs the message kernel (S1)";
      run = E16_topology.run };
    { id = "e17";
      title = "The thousand-VMs strawman";
      claim =
        "the alternative is turning the chip into a cluster of separate \
         VMs - thoroughly unsatisfying and inefficient (S6)";
      run = E17_vm_strawman.run };
    { id = "e18";
      title = "Message weight classes";
      claim =
        "most microkernel messages are middleweight; L4's synchronous \
         messages are really procedure calls (S2)";
      run = E18_ipc_weights.run };
    { id = "e19";
      title = "Driver scheduling priority";
      claim =
        "kernel components are just threads; scheduling them is a new \
         difficulty (S5)";
      run = E19_driver_priority.run };
    { id = "e20";
      title = "Replicated cluster on the fabric";
      claim =
        "structurally similar to a client/server network application; \
         aim for not failing (S1/S5)";
      run = E20_cluster.run };
    { id = "e21";
      title = "Overload policies at the service plane";
      claim =
        "servers are queues; past saturation something must give: \
         block backpressures, reject and shed protect latency (S3/S5)";
      run = E21_overload.run };
    { id = "e22";
      title = "Chaos campaign with linearizability and recovery oracles";
      claim =
        "aiming for not failing: under enumerated fault schedules the \
         stack stays linearizable, durable, and recovers — and every \
         failure is a shrinkable, replayable schedule (S1/S5)";
      run = E22_chaos.run };
    { id = "e23";
      title = "Projected filesystem: hydration latency and storm policies";
      claim =
        "a remote namespace can be grafted in lazily: placeholders \
         hydrate over the wire on first read, a warm open pays only \
         the kernel's path walk, and a hydration storm meets an \
         explicit overload policy, not an unbounded queue (S3/S5)";
      run = E23_projfs.run };
    { id = "e24";
      title = "Cluster hot path: batching, leases, open-loop load";
      claim =
        "a centralized service scales only if engineered to: group \
         commit amortizes the replication round, leader leases take \
         reads off the quorum path, and the proof is throughput/p99 \
         against offered load, not an assertion (S1/S3/S5)";
      run = E24_hotpath.run };
    { id = "e25";
      title = "Gray failure: deadlines and circuit breakers";
      claim =
        "aiming for not failing includes not failing slowly: a \
         replica that is alive to its peers but slow to its clients \
         evades crash detection, so the client plane needs its own \
         defenses — end-to-end deadlines cap the latency tail and \
         circuit breakers steer traffic off the gray node (S1/S5)";
      run = E25_gray.run } ]

let find id =
  let id = String.lowercase_ascii id in
  (* accept zero-padded forms: e04 means e4 *)
  let id =
    if String.length id > 2 && id.[0] = 'e' then
      match
        int_of_string_opt (String.sub id 1 (String.length id - 1))
      with
      | Some n -> Printf.sprintf "e%d" n
      | None -> id
    else id
  in
  List.find_opt (fun e -> e.id = id) all
