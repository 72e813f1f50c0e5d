(* Tests for the sharded, replicated KV cluster: shard map purity,
   cold-start elections, durability of acked writes across a leader
   crash, availability under combined loss and crash injection, and
   whole-cluster determinism. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Notify = Chorus_kernel.Notify
module Shardmap = Chorus_cluster.Shardmap
module Raft = Chorus_cluster.Raft
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client

let run ?(seed = 21) ?(cores = 16) main =
  Runtime.run
    (Runtime.config ~policy:(Policy.round_robin ()) ~seed
       (Machine.mesh ~cores))
    main

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

let test_shardmap_pure () =
  let nodes = [ 0; 1; 2; 3; 4 ] in
  let a = Shardmap.build ~nshards:16 ~replication:3 nodes in
  let b = Shardmap.build ~nshards:16 ~replication:3 nodes in
  Alcotest.(check string)
    "same nodes, same map" (Shardmap.encode a) (Shardmap.encode b);
  for s = 0 to 15 do
    let g = Shardmap.replicas a s in
    Alcotest.(check int) "replication degree" 3 (Array.length g);
    let distinct = List.sort_uniq compare (Array.to_list g) in
    Alcotest.(check int) "replicas distinct" 3 (List.length distinct)
  done;
  (* every key maps to a shard in range, stably *)
  List.iter
    (fun k ->
      let s = Shardmap.shard_of_key a k in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 16);
      Alcotest.(check int) "stable" s (Shardmap.shard_of_key b k))
    [ "alpha"; "beta"; ""; "x"; String.make 100 'q' ]

let test_shardmap_roundtrip () =
  let m = Shardmap.build ~nshards:8 ~replication:2 [ 3; 1; 4; 1; 5 ] in
  match Shardmap.decode (Shardmap.encode m) with
  | None -> Alcotest.fail "decode failed"
  | Some m' ->
    Alcotest.(check int) "version" (Shardmap.version m) (Shardmap.version m');
    Alcotest.(check (list int)) "nodes" (Shardmap.nodes m) (Shardmap.nodes m');
    Alcotest.(check string)
      "re-encodes identically" (Shardmap.encode m) (Shardmap.encode m');
    for s = 0 to 7 do
      Alcotest.(check (list int))
        "group"
        (Array.to_list (Shardmap.replicas m s))
        (Array.to_list (Shardmap.replicas m' s))
    done

let test_shardmap_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (Shardmap.decode "not;a;map" = None);
  Alcotest.(check bool) "empty rejected" true (Shardmap.decode "" = None)

let test_shardmap_spread () =
  (* consistent hashing should touch every node with enough shards *)
  let nodes = [ 0; 1; 2; 3; 4 ] in
  let m = Shardmap.build ~nshards:32 ~replication:3 nodes in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d owns some shard" n)
        true
        (Shardmap.shards_of_node m n <> []))
    nodes

let test_shardmap_lookup_in () =
  (* the RCU read path: lookup_in is pure over a snapshot and agrees
     with the two-step shard_of_key + replicas(...).(0) route *)
  let m = Shardmap.build ~nshards:16 ~replication:3 [ 0; 1; 2; 3; 4 ] in
  List.iter
    (fun k ->
      let s = Shardmap.shard_of_key m k in
      Alcotest.(check int)
        (Printf.sprintf "lookup_in %S = primary of its shard" k)
        (Shardmap.replicas m s).(0)
        (Shardmap.lookup_in m k))
    [ "alpha"; "beta"; ""; "k0000042"; String.make 64 'z' ]

let test_shardmap_chi_squared () =
  (* 64 shards x 1e5 workload-shaped keys: the shard hash must spread
     keys uniformly or one raft group becomes the hot-path bottleneck.
     chi^2 over 63 degrees of freedom has mean 63 and sigma ~11; 150
     is far beyond any plausible good-hash excursion (p < 1e-9) while
     a byte-sum-grade hash scores in the thousands on k%07d keys. *)
  let nshards = 64 and nkeys = 100_000 in
  let m = Shardmap.build ~nshards ~replication:1 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let counts = Array.make nshards 0 in
  for i = 0 to nkeys - 1 do
    let s = Shardmap.shard_of_key m (Printf.sprintf "k%07d" i) in
    counts.(s) <- counts.(s) + 1
  done;
  let expect = float_of_int nkeys /. float_of_int nshards in
  let chi2 =
    Array.fold_left
      (fun acc n ->
        let d = float_of_int n -. expect in
        acc +. (d *. d /. expect))
      0.0 counts
  in
  Array.iteri
    (fun s n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d non-empty" s)
        true (n > 0))
    counts;
  Alcotest.(check bool)
    (Printf.sprintf "chi^2 %.1f within uniform bounds" chi2)
    true (chi2 < 150.0)

(* ------------------------------------------------------------------ *)
(* Cluster behaviour                                                   *)

let mk_cluster ?raft ?(loss = 0.0) ?(nnodes = 3) ?(nshards = 4)
    ?(replication = 3) ?(seed = 7) () =
  let net = Fabric.create ~latency:5_000 ~loss ~seed () in
  let c = Cluster.create ?raft ~nshards ~replication ~seed ~nnodes net in
  Cluster.start c;
  let cstack = Stack.create net (Fabric.attach net ~label:"client" ()) in
  let client =
    Client.create ~seed ~bootstrap:(Cluster.addrs c) cstack
  in
  (net, c, client)

let test_cold_start_election () =
  let (_ : Runstats.t) =
    run (fun () ->
        let _, c, client = mk_cluster () in
        Fiber.sleep 800_000;
        for s = 0 to Shardmap.nshards (Cluster.map c) - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "shard %d elected a leader" s)
            true
            (Cluster.leader_of c s >= 0)
        done;
        Alcotest.(check bool) "elections ran" true
          (Cluster.elections_started c > 0);
        Alcotest.(check bool) "put acked" true
          (Client.put client "alpha" "1" = `Ok);
        Alcotest.(check bool) "get hit" true
          (Client.get client "alpha" = `Found "1");
        Alcotest.(check bool) "get miss" true
          (Client.get client "absent" = `Miss);
        Cluster.stop c)
  in
  ()

let test_leader_crash_durability () =
  let (_ : Runstats.t) =
    run (fun () ->
        let _, c, client = mk_cluster ~nshards:2 () in
        Fiber.sleep 800_000;
        let key i = Printf.sprintf "key-%03d" i in
        for i = 0 to 9 do
          Alcotest.(check bool)
            (Printf.sprintf "put %d acked" i)
            true
            (Client.put client (key i) (string_of_int i) = `Ok)
        done;
        (* kill the shard-0 leader mid-load *)
        let victim = Cluster.leader_of c 0 in
        Alcotest.(check bool) "shard 0 has a leader" true (victim >= 0);
        let changes_before = Cluster.leader_changes c in
        Cluster.crash_node c victim;
        (* writes continue through the election *)
        for i = 10 to 19 do
          Alcotest.(check bool)
            (Printf.sprintf "put %d acked through failover" i)
            true
            (Client.put client (key i) (string_of_int i) = `Ok)
        done;
        (* a new leader took over the victim's shard; the healed victim
           may legitimately win leadership back later, so the evidence
           of the move is the election counter, not the current holder *)
        Alcotest.(check bool) "shard 0 re-elected" true
          (Cluster.leader_of c 0 >= 0);
        Alcotest.(check bool) "leadership moved" true
          (Cluster.leader_changes c > changes_before);
        (* no acked write was lost; reads are linearizable *)
        for i = 0 to 19 do
          Alcotest.(check bool)
            (Printf.sprintf "read %d survives the crash" i)
            true
            (Client.get client (key i) = `Found (string_of_int i))
        done;
        (* the supervisor healed the node *)
        Fiber.sleep 800_000;
        Alcotest.(check bool) "supervisor restarted the node" true
          (Cluster.restarts c >= 1);
        Alcotest.(check bool) "victim is back up" true
          (Cluster.node_up c victim);
        Cluster.stop c)
  in
  ()

let test_membership_events_published () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 () in
        let hub = Notify.start () in
        let c =
          Cluster.create ~notify:hub ~nshards:2 ~replication:3 ~seed:7
            ~nnodes:3 net
        in
        let events = Notify.subscribe hub in
        Cluster.start c;
        Fiber.sleep 800_000;
        Cluster.crash_node c (List.hd (Cluster.addrs c));
        Fiber.sleep 800_000;
        let seen = Hashtbl.create 8 in
        let rec drain () =
          match Chorus.Chan.try_recv events with
          | Some (Notify.Custom s) ->
            Hashtbl.replace seen s ();
            drain ()
          | Some _ -> drain ()
          | None -> ()
        in
        drain ();
        let saw prefix =
          Hashtbl.fold
            (fun k () acc ->
              acc
              || String.length k >= String.length prefix
                 && String.sub k 0 (String.length prefix) = prefix)
            seen false
        in
        Alcotest.(check bool) "node up events" true (saw "cluster:node");
        Alcotest.(check bool) "down event for node 0" true
          (Hashtbl.mem seen "cluster:node0:down");
        Alcotest.(check bool) "leader announcements" true
          (saw "cluster:shard");
        Cluster.stop c)
  in
  ()

let test_availability_under_loss_and_crashes () =
  let (_ : Runstats.t) =
    run (fun () ->
        let _, c, client =
          mk_cluster ~loss:0.01 ~nnodes:5 ~nshards:8 ~seed:11 ()
        in
        Fiber.sleep 1_000_000;
        let acked = ref [] in
        let key i = Printf.sprintf "k%04d" i in
        for i = 0 to 149 do
          (* rolling crash injection: one node at a time, round robin *)
          if i mod 50 = 25 then begin
            let victims = Cluster.addrs c in
            let v = List.nth victims (i / 50 mod List.length victims) in
            Cluster.crash_node c v
          end;
          match Client.put client (key i) (string_of_int i) with
          | `Ok -> acked := i :: !acked
          | `Net_fail -> ()
        done;
        let n_acked = List.length !acked in
        (* bounded unavailability: elections are fast relative to the
           client's retry budget, so the vast majority must ack *)
        Alcotest.(check bool)
          (Printf.sprintf "most writes acked (%d/150)" n_acked)
          true (n_acked >= 140);
        (* every acked write is durable and readable *)
        Fiber.sleep 1_000_000;
        List.iter
          (fun i ->
            Alcotest.(check bool)
              (Printf.sprintf "acked %d readable" i)
              true
              (Client.get client (key i) = `Found (string_of_int i)))
          !acked;
        Alcotest.(check bool) "crashes detected" true
          (Cluster.node_crashes c >= 3);
        Alcotest.(check bool) "supervisor healed nodes" true
          (Cluster.restarts c >= 3);
        Cluster.stop c)
  in
  ()

(* Two identical runs of a failover-heavy scenario must agree on every
   observable: op results, elections, virtual time. *)
let cluster_digest () =
  let results = Buffer.create 256 in
  let stats =
    run ~seed:33 (fun () ->
        let _, c, client =
          mk_cluster ~loss:0.02 ~nnodes:3 ~nshards:4 ~seed:13 ()
        in
        Fiber.sleep 800_000;
        for i = 0 to 39 do
          if i = 20 then Cluster.crash_node c (Cluster.leader_of c 0);
          let k = Printf.sprintf "d%d" i in
          (match Client.put client k (string_of_int i) with
          | `Ok -> Buffer.add_string results "A"
          | `Net_fail -> Buffer.add_string results "U");
          match Client.get client k with
          | `Found v -> Buffer.add_string results ("=" ^ v ^ ";")
          | `Miss -> Buffer.add_string results "M;"
          | `Net_fail -> Buffer.add_string results "u;"
        done;
        Buffer.add_string results
          (Printf.sprintf "|elections=%d|changes=%d|t=%d"
             (Cluster.elections_started c)
             (Cluster.leader_changes c)
             (Fiber.now ()));
        Cluster.stop c)
  in
  Buffer.add_string results
    (Printf.sprintf "|makespan=%d|msgs=%d|retries=%d" stats.Runstats.makespan
       stats.Runstats.msgs stats.Runstats.retries);
  Buffer.contents results

let test_same_seed_byte_identical () =
  let a = cluster_digest () in
  let b = cluster_digest () in
  Alcotest.(check string) "same seed, same history" a b

let test_runstats_counts_retries () =
  (* loss forces retransmissions, and they surface in Runstats *)
  let stats =
    run (fun () ->
        let net = Fabric.create ~latency:2_000 ~loss:0.3 ~seed:9 () in
        let a = Stack.create net (Fabric.attach net ()) in
        let b = Stack.create net (Fabric.attach net ()) in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve b ~port:50 (fun ~src:_ req -> "re:" ^ req)));
        for i = 1 to 20 do
          ignore
            (Stack.call a ~dst:(Stack.addr b) ~port:50 ~timeout:20_000
               (Printf.sprintf "m%d" i))
        done)
  in
  Alcotest.(check bool) "retries counted in runstats" true
    (stats.Runstats.retries > 0);
  let clean =
    run (fun () ->
        let net = Fabric.create ~latency:2_000 () in
        let a = Stack.create net (Fabric.attach net ()) in
        let b = Stack.create net (Fabric.attach net ()) in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve b ~port:50 (fun ~src:_ req -> "re:" ^ req)));
        for i = 1 to 20 do
          ignore
            (Stack.call a ~dst:(Stack.addr b) ~port:50
               (Printf.sprintf "m%d" i))
        done)
  in
  Alcotest.(check int) "no loss, no retries" 0 clean.Runstats.retries

(* ------------------------------------------------------------------ *)
(* Client give-up verdict                                              *)

(* ------------------------------------------------------------------ *)
(* Circuit breakers and op budgets                                     *)

(* A 1-node cluster plus a breaker/budget client.  The client's NIC
   attaches after the node's, so its fabric address is 1 and the
   gray/partition window is the directed link 1 -> 0. *)
let mk_gray_pair ?breaker ?op_budget ~seed () =
  let net = Fabric.create ~latency:5_000 ~seed () in
  let c = Cluster.create ~nshards:2 ~replication:1 ~seed ~nnodes:1 net in
  Cluster.start c;
  let cstack = Stack.create net (Fabric.attach net ~label:"client" ()) in
  let client =
    Client.create ~call_timeout:20_000 ?breaker ?op_budget ~seed:9
      ~bootstrap:(Cluster.addrs c) cstack
  in
  (net, c, client)

let test_breaker_trip_halfopen_close () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net, c, client =
          mk_gray_pair
            ~breaker:{ Client.trip_after = 3; cooldown = 300_000 }
            ~op_budget:80_000 ~seed:7 ()
        in
        Fiber.sleep 800_000;
        Alcotest.(check bool) "healthy put acked" true
          (Client.put client "k" "v1" = `Ok);
        Alcotest.(check bool) "healthy node reads closed" true
          (Client.breaker_state client 0 = `Closed);
        (* the node goes gray: the client's requests to it vanish *)
        Fabric.set_link_faults net ~src:1 ~dst:0 ~partition:true ();
        (match Client.put client "k" "v2" with
        | `Net_fail -> ()
        | `Ok -> Alcotest.fail "put through a partition");
        Alcotest.(check bool) "breaker tripped open" true
          (Client.breaker_state client 0 = `Open);
        Alcotest.(check bool) "trip counted" true
          (Client.breaker_trips client >= 1);
        (* cooldown passes: the breaker reads half-open *)
        Fiber.sleep 400_000;
        Alcotest.(check bool) "cooldown expiry reads half-open" true
          (Client.breaker_state client 0 = `Half_open);
        (* the link heals: the next operation is the probe *)
        Fabric.clear_link_faults net ~src:1 ~dst:0;
        Alcotest.(check bool) "probe succeeds" true
          (Client.put client "k" "v3" = `Ok);
        Alcotest.(check bool) "probe counted" true
          (Client.breaker_probes client >= 1);
        Alcotest.(check bool) "breaker closed again" true
          (Client.breaker_state client 0 = `Closed);
        Alcotest.(check bool) "write-through after recovery" true
          (Client.get client "k" = `Found "v3");
        Cluster.stop c)
  in
  ()

let test_op_budget_bounds_failure_time () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net, c, client =
          mk_gray_pair ~op_budget:50_000 ~seed:8 ()
        in
        Fiber.sleep 800_000;
        Alcotest.(check bool) "healthy put acked" true
          (Client.put client "k" "v1" = `Ok);
        Fabric.set_link_faults net ~src:1 ~dst:0 ~partition:true ();
        let t0 = Fiber.now () in
        (match Client.put client "k" "v2" with
        | `Net_fail -> ()
        | `Ok -> Alcotest.fail "put through a partition");
        let elapsed = Fiber.now () - t0 in
        Alcotest.(check bool)
          (Printf.sprintf "failed fast (%d cycles)" elapsed)
          true
          (elapsed <= 120_000);
        Alcotest.(check bool) "deadline miss counted" true
          (Client.deadline_misses client >= 1);
        Alcotest.(check int) "counted in ops_failed too" 1
          (Client.ops_failed client);
        Cluster.stop c)
  in
  ()

let test_breaker_steers_around_gray_node () =
  (* 3 replicas, the leader of one shard gray to the client only:
     after the breaker trips, routing must steer rotations off that
     node, and operations led by healthy nodes keep succeeding.  All
     assertions happen after the run: a failed check inside the
     simulation would kill the main fiber with the cluster still
     heartbeating, and the run would never quiesce. *)
  let victim = ref (-1)
  and trips = ref 0
  and skips = ref 0
  and state = ref `Closed
  and state_after = ref `Open
  and healed_ok = ref false in
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:7 () in
        let c =
          Cluster.create ~nshards:4 ~replication:3 ~seed:7 ~nnodes:3 net
        in
        Cluster.start c;
        let cstack =
          Stack.create net (Fabric.attach net ~label:"client" ())
        in
        let client =
          Client.create ~call_timeout:20_000
            ~breaker:{ Client.trip_after = 3; cooldown = 2_000_000 }
            ~op_budget:120_000 ~seed:9 ~bootstrap:(Cluster.addrs c) cstack
        in
        Fiber.sleep 1_000_000;
        (* gray the node that actually leads key "hot"'s shard, so
           every op on that key keeps running into the open breaker *)
        let m = Cluster.map c in
        let v = Cluster.leader_of c (Shardmap.shard_of_key m "hot") in
        victim := v;
        if v >= 0 then begin
          Fabric.set_link_faults net ~src:3 ~dst:v ~partition:true ();
          for _ = 1 to 6 do
            match Client.put client "hot" "v" with `Ok | `Net_fail -> ()
          done;
          trips := Client.breaker_trips client;
          skips := Client.breaker_skips client;
          state := Client.breaker_state client v;
          (* heal the link: the next op steers to a follower, whose
             redirect goes straight at the leader (redirect hops bypass
             the breaker — they are the probe), succeeds, and closes it *)
          Fabric.clear_link_faults net ~src:3 ~dst:v;
          healed_ok := Client.put client "hot" "v" = `Ok;
          state_after := Client.breaker_state client v
        end;
        Cluster.stop c)
  in
  Alcotest.(check bool) "shard has a settled leader" true (!victim >= 0);
  Alcotest.(check bool)
    (Printf.sprintf "breaker tripped on the gray node (trips=%d)" !trips)
    true (!trips >= 1);
  Alcotest.(check bool) "gray node reads open" true (!state = `Open);
  Alcotest.(check bool)
    (Printf.sprintf "rotations steered off it (skips=%d)" !skips)
    true (!skips >= 1);
  Alcotest.(check bool) "healed link serves again" true !healed_ok;
  Alcotest.(check bool) "success closes the breaker" true
    (!state_after = `Closed)

let test_client_net_fail_no_cluster () =
  (* no cluster ever starts: every attempt times out and the client
     reports the typed give-up verdict, `Net_fail *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:3 () in
        let st = Stack.create net (Fabric.attach net ()) in
        let c =
          Client.create ~attempts:2 ~call_timeout:20_000 ~seed:9
            ~bootstrap:[ 0; 1; 2 ] st
        in
        (match Client.put c "k" "v" with
        | `Net_fail -> ()
        | `Ok -> Alcotest.fail "put acked with no cluster running");
        (match Client.get c "k" with
        | `Net_fail -> ()
        | `Found _ | `Miss ->
          Alcotest.fail "get answered with no cluster running");
        Alcotest.(check int) "both operations counted as failed" 2
          (Client.ops_failed c))
  in
  ()

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Hot path: group commit, leases, pipelining                          *)

let raft_sum c ~nshards f =
  List.fold_left
    (fun acc addr ->
      let s = ref 0 in
      for shard = 0 to nshards - 1 do
        match Cluster.raft_of c ~node:addr ~shard with
        | Some r -> s := !s + f r
        | None -> ()
      done;
      acc + !s)
    0 (Cluster.addrs c)

let test_group_commit_batching () =
  let (_ : Runstats.t) =
    run (fun () ->
        let raft =
          { (Raft.default_config ~seed:7) with
            Raft.batch_window = 10_000;
            max_append = 64 }
        in
        let _, c, client = mk_cluster ~raft () in
        Fiber.sleep 800_000;
        for i = 0 to 29 do
          Alcotest.(check bool)
            (Printf.sprintf "put %d acked" i)
            true
            (Client.put client (Printf.sprintf "bk%d" i) (string_of_int i)
            = `Ok)
        done;
        for i = 0 to 29 do
          Alcotest.(check bool)
            (Printf.sprintf "batched write %d readable" i)
            true
            (Client.get client (Printf.sprintf "bk%d" i)
            = `Found (string_of_int i))
        done;
        Alcotest.(check bool) "group commits happened" true
          (raft_sum c ~nshards:4 Raft.group_commits > 0);
        Cluster.stop c)
  in
  ()

let test_leased_reads_served_locally () =
  let (_ : Runstats.t) =
    run (fun () ->
        let raft =
          { (Raft.default_config ~seed:7) with Raft.lease = true }
        in
        let _, c, client = mk_cluster ~raft () in
        Fiber.sleep 800_000;
        Alcotest.(check bool) "put acked" true
          (Client.put client "lk" "v1" = `Ok);
        for _ = 1 to 10 do
          Alcotest.(check bool) "leased get sees the write" true
            (Client.get client "lk" = `Found "v1")
        done;
        Alcotest.(check bool) "reads served under the lease" true
          (raft_sum c ~nshards:4 Raft.leased_reads > 0);
        (* leases must not serve a value newer writes replaced *)
        Alcotest.(check bool) "overwrite acked" true
          (Client.put client "lk" "v2" = `Ok);
        Alcotest.(check bool) "leased get sees the overwrite" true
          (Client.get client "lk" = `Found "v2");
        Cluster.stop c)
  in
  ()

let test_client_pipeline () =
  let (_ : Runstats.t) =
    run (fun () ->
        let _, c, client = mk_cluster () in
        Fiber.sleep 800_000;
        let pipe = Client.pipeline ~depth:4 client in
        let n = 12 in
        let seqs = ref [] in
        for i = 0 to n - 1 do
          seqs :=
            Client.submit pipe
              (Client.Op_put (Printf.sprintf "pk%d" i, string_of_int i))
            :: !seqs
        done;
        let compl_c = Client.completions pipe in
        for _ = 1 to n do
          let { Client.seq; at; result } = Chan.recv compl_c in
          Alcotest.(check bool) "seq was issued" true (List.mem seq !seqs);
          Alcotest.(check bool) "completion is stamped" true (at > 0);
          match result with
          | `Ok -> ()
          | `Found _ | `Miss | `Net_fail -> Alcotest.fail "put must ack"
        done;
        Alcotest.(check int)
          "seqs dense and unique" (n * (n - 1) / 2)
          (List.fold_left ( + ) 0 !seqs);
        Alcotest.(check int) "window drained" 0 (Client.inflight pipe);
        Alcotest.(check bool) "window was actually used" true
          (Client.inflight_hwm pipe > 1);
        Alcotest.(check bool) "window never exceeded depth" true
          (Client.inflight_hwm pipe <= 4);
        (* pipelined reads observe the pipelined writes *)
        for i = 0 to n - 1 do
          ignore (Client.submit pipe (Client.Op_get (Printf.sprintf "pk%d" i)))
        done;
        let found = ref 0 in
        for _ = 1 to n do
          match (Chan.recv compl_c).Client.result with
          | `Found _ -> incr found
          | `Ok | `Miss | `Net_fail -> ()
        done;
        Alcotest.(check int) "every pipelined write readable" n !found;
        Cluster.stop c)
  in
  ()

let () =
  Alcotest.run "cluster"
    [ ( "shardmap",
        [ Alcotest.test_case "pure function of nodes" `Quick
            test_shardmap_pure;
          Alcotest.test_case "wire roundtrip" `Quick test_shardmap_roundtrip;
          Alcotest.test_case "garbage decode" `Quick
            test_shardmap_decode_garbage;
          Alcotest.test_case "spread over nodes" `Quick test_shardmap_spread;
          Alcotest.test_case "lookup_in agrees with shard_of_key" `Quick
            test_shardmap_lookup_in;
          Alcotest.test_case "chi-squared key distribution" `Quick
            test_shardmap_chi_squared
        ] );
      ( "hot path",
        [ Alcotest.test_case "group commit batches writes" `Quick
            test_group_commit_batching;
          Alcotest.test_case "leased reads served locally" `Quick
            test_leased_reads_served_locally;
          Alcotest.test_case "client pipeline window" `Quick
            test_client_pipeline
        ] );
      ( "cluster",
        [ Alcotest.test_case "cold-start election" `Quick
            test_cold_start_election;
          Alcotest.test_case "leader crash: acked writes survive" `Quick
            test_leader_crash_durability;
          Alcotest.test_case "membership events published" `Quick
            test_membership_events_published;
          Alcotest.test_case "availability under loss + crashes" `Slow
            test_availability_under_loss_and_crashes;
          Alcotest.test_case "client Net_fail with no cluster" `Quick
            test_client_net_fail_no_cluster
        ] );
      ( "breakers",
        [ Alcotest.test_case "trip, half-open, close" `Quick
            test_breaker_trip_halfopen_close;
          Alcotest.test_case "op budget bounds failure time" `Quick
            test_op_budget_bounds_failure_time;
          Alcotest.test_case "steering around a gray node" `Quick
            test_breaker_steers_around_gray_node
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, byte-identical run" `Slow
            test_same_seed_byte_identical;
          Alcotest.test_case "runstats retries" `Quick
            test_runstats_counts_retries
        ] )
    ]
