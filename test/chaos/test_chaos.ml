(* Tests for the chaos engine: the Wing–Gong linearizability checker
   on hand-built histories (legal and illegal), the one fault injector
   ({!Chaos.arm}), schedule shrinking neighbourhoods, the scenario
   registry (names, per-scenario green campaigns, a pinned
   all-scenario digest), byte-identical replay of individual runs, and
   the oracle selftest (planted violations must be caught, shrunk to
   zero faults, and replayed). *)

module Lin = Chorus_chaos.Lin
module Schedule = Chorus_chaos.Schedule
module Chaos = Chorus_chaos.Chaos
module Fiber = Chorus.Fiber
module Runtime = Chorus.Runtime
module Machine = Chorus_machine.Machine
module Blockdev = Chorus_kernel.Blockdev
module Fabric = Chorus_net.Fabric
module Cluster = Chorus_cluster.Cluster
module Trace = Chorus.Trace
module Metrics = Chorus_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Lin: per-key register checker                                       *)

let op ?value ?returned kind invoked =
  { Lin.proc = 0; kind; value; invoked; returned }

let wr v i r = { (op `Write i ~returned:r) with Lin.value = Some v }

let rd vo i r = { (op `Read i ~returned:r) with Lin.value = vo }

let check_ok what ops =
  match Lin.check ops with
  | `Ok -> ()
  | `Violation m -> Alcotest.failf "%s: unexpected violation: %s" what m

let check_viol what ops =
  match Lin.check ops with
  | `Ok -> Alcotest.failf "%s: expected a violation, got `Ok" what
  | `Violation _ -> ()

let test_lin_sequential () =
  check_ok "write then read"
    [ wr "a" 0 10; rd (Some "a") 20 30 ];
  check_ok "overwrite then read"
    [ wr "a" 0 10; wr "b" 20 30; rd (Some "b") 40 50 ];
  check_ok "initial miss" [ rd None 0 10; wr "a" 20 30 ]

let test_lin_concurrent () =
  (* reads overlapping a write may see either side of it *)
  check_ok "overlapping read sees new"
    [ wr "a" 0 10; wr "b" 20 100; rd (Some "b") 50 60 ];
  check_ok "overlapping read sees old"
    [ wr "a" 0 10; wr "b" 20 100; rd (Some "a") 50 60 ];
  (* two concurrent writes: order is free, later read pins it *)
  check_ok "concurrent writes, either wins"
    [ wr "a" 0 100; wr "b" 0 100; rd (Some "a") 200 210 ]

let test_lin_stale_read () =
  check_viol "stale read after overwrite"
    [ wr "a" 0 10; wr "b" 20 30; rd (Some "a") 40 50 ];
  check_viol "read of never-written value"
    [ wr "a" 0 10; rd (Some "ghost") 20 30 ];
  check_viol "miss after completed write"
    [ wr "a" 0 10; rd None 20 30 ]

let test_lin_lost_write () =
  (* a lost write may take effect any time after invocation... *)
  check_ok "lost write observed later"
    [ { (wr "a" 0 0) with Lin.returned = None }; rd (Some "a") 100 110 ];
  (* ...or never *)
  check_ok "lost write never applied"
    [ { (wr "a" 0 0) with Lin.returned = None }; rd None 100 110 ];
  (* but never before its invocation *)
  check_viol "lost write seen before invoked"
    [ rd (Some "a") 0 10; { (wr "a" 100 0) with Lin.returned = None } ]

let test_lin_lost_read () =
  (* a lost read constrains nothing, even an impossible-looking one *)
  check_ok "lost read dropped"
    [ wr "a" 0 10;
      { (rd (Some "ghost") 20 0) with Lin.returned = None };
      rd (Some "a") 40 50 ]

(* ------------------------------------------------------------------ *)
(* Chaos.arm: the one injector                                         *)

let run_cores cores main =
  let (_ : Chorus.Runstats.t) =
    Runtime.run (Runtime.config (Machine.mesh ~cores)) main
  in
  ()

let disk ?(p = 0.5) ?(dur = 100) at = Schedule.Disk_errors { at; dur; p }

(* [on_fire] for {!Chaos.arm} that logs each firing with its time *)
let firings () =
  let log = ref [] in
  (log, fun f -> log := (Fiber.now (), f) :: !log)

(* the faults fired, in order, and each within 1,000 cycles after its
   time (the injector wakes a few cycles after the time it slept to) *)
let check_fired what expected log =
  let fired = List.rev !log in
  let line faults = Schedule.to_string { Schedule.seed = 0; faults } in
  Alcotest.(check string)
    (what ^ ": faults in firing order")
    (line expected)
    (line (List.map snd fired));
  List.iter
    (fun (now, f) ->
      let at =
        match f with
        | Schedule.Disk_errors { at; _ } | Schedule.Kill_node { at; _ } -> at
        | f -> Alcotest.failf "unexpected %s" (Schedule.kind f)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fault at %d fired at %d" what at now)
        true
        (now >= at && now < at + 1_000))
    fired

let test_arm_time_order () =
  (* unsorted, with two faults at one time: each fires at its time, in
     time order; a tie is nudged one cycle apart in the injector's
     stable sort of its (prepended) actions, so the later-listed fault
     of the tie fires first.  The injector wakes 30 cycles after the
     first of the two, so both fire in the same cycle.  An empty
     window never opens. *)
  let log, on_fire = firings () in
  run_cores 4 (fun () ->
      let dev = Blockdev.start () in
      let clear =
        Chaos.arm ~on_fire ~dev
          { Schedule.seed = 1;
            faults =
              [ disk 9_000; disk ~dur:0 3_000; disk 1_000; disk ~p:0.25 5_000;
                disk ~p:0.75 5_000 ] }
      in
      clear ());
  check_fired "disk windows"
    [ disk 1_000; disk ~p:0.75 5_000; disk ~p:0.25 5_000; disk 9_000 ]
    log

let test_arm_outlives_workload () =
  (* a fault far past the workload's end still fires at its time, and
     the run still ends: the injector is a daemon *)
  let log, on_fire = firings () in
  run_cores 4 (fun () ->
      let dev = Blockdev.start () in
      let (_ : unit -> unit) =
        Chaos.arm ~on_fire ~dev
          { Schedule.seed = 1; faults = [ disk 60_000_000_000; disk 1_000 ] }
      in
      Fiber.sleep 10_000);
  check_fired "late window" [ disk 1_000; disk 60_000_000_000 ] log

let test_arm_kill_node_down () =
  (* node 1 reads as down from the instant it is killed and is back
     about 700 cycles later: a second kill at the same instant (the
     injector runs it one cycle later) and a third 200 cycles after the
     first find it down and are not counted; a kill after the restart
     is *)
  let log, on_fire = firings () in
  let crashes = ref 0 and restarts = ref 0 in
  let kill at = Schedule.Kill_node { node = 1; at } in
  run_cores 16 (fun () ->
      let net = Fabric.create ~latency:5_000 ~seed:3 () in
      let c = Cluster.create ~nshards:2 ~replication:3 ~seed:3 ~nnodes:3 net in
      Cluster.start c;
      Fiber.sleep 1_000_000;
      let clear =
        Chaos.arm ~on_fire ~cluster:c
          { Schedule.seed = 3;
            faults =
              [ kill 1_200_000; kill 1_200_000; kill 1_200_200;
                kill 3_000_000 ] }
      in
      clear ();
      Fiber.sleep 100_000;
      crashes := Cluster.node_crashes c;
      restarts := Cluster.restarts c;
      Cluster.stop c);
  check_fired "node kills" [ kill 1_200_000; kill 3_000_000 ] log;
  Alcotest.(check int) "node crashes" 2 !crashes;
  Alcotest.(check int) "restarts" 2 !restarts

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)

let test_schedule_subschedules () =
  let s =
    { Schedule.seed = 9;
      faults =
        [ Schedule.Kill_point { point = "chaos.store"; at = 100; dur = 50 };
          Schedule.Disk_errors { at = 200; dur = 80; p = 0.3 };
          Schedule.Frame_loss { at = 10; dur = 20; p = 0.1 } ] }
  in
  let subs = Schedule.subschedules s in
  Alcotest.(check int) "one per fault" 3 (List.length subs);
  List.iter
    (fun sub ->
      Alcotest.(check int) "seed preserved" 9 sub.Schedule.seed;
      Alcotest.(check int) "one fault dropped" 2 (Schedule.nfaults sub))
    subs;
  Alcotest.(check (list string))
    "kind tags"
    [ "kill-point"; "disk"; "loss" ]
    (List.map Schedule.kind s.Schedule.faults);
  let str = Schedule.to_string s in
  Alcotest.(check bool) "to_string names seed" true
    (String.length str > 6 && String.sub str 0 6 = "seed=9")

let test_schedule_link_fault_round_trip () =
  (* the two gray fault kinds survive to_string/of_string exactly *)
  let s =
    { Schedule.seed = 7;
      faults =
        [ Schedule.Link_delay
            { src = 0; dst = 2; at = 1_100_000; dur = 400_000; p = 0.65;
              cycles = 200_000 };
          Schedule.Partition { src = 2; dst = 0; at = 1_300_000; dur = 250_000 } ] }
  in
  let str = Schedule.to_string s in
  Alcotest.(check string) "round trip is exact" str
    (Schedule.to_string (Schedule.of_string str));
  Alcotest.(check (list string))
    "kind tags" [ "link-delay"; "partition" ]
    (List.map Schedule.kind s.Schedule.faults)

let test_schedule_malformed_partition_rejected () =
  (* a partition spec without its (src>dst) link is meaningless *)
  List.iter
    (fun bad ->
      match Schedule.of_string ("seed=1 " ^ bad) with
      | (_ : Schedule.t) ->
        Alcotest.failf "malformed %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "partition@100+200";
      "partition()@100+200";
      "partition(3)@100+200";
      "link-delay(0>1)@100+200" ]

(* ------------------------------------------------------------------ *)
(* Chaos runs                                                          *)

let test_gen_deterministic () =
  List.iter
    (fun (e : Chaos.entry) ->
      let a = Chaos.gen e.scenario ~seed:5 ~index:3 in
      let b = Chaos.gen e.scenario ~seed:5 ~index:3 in
      Alcotest.(check string)
        (e.name ^ ": gen is a pure function of (seed, index)")
        (Schedule.to_string a) (Schedule.to_string b);
      let zero = Chaos.gen e.scenario ~seed:5 ~index:0 in
      Alcotest.(check int)
        (e.name ^ ": index 0 is fault-free")
        0 (Schedule.nfaults zero))
    Chaos.scenarios

(* every name and alias resolves to its own scenario; none is shared *)
let test_registry_names () =
  let resolve n = Option.map Chaos.name (Chaos.of_name n) in
  let names =
    List.concat_map
      (fun (e : Chaos.entry) ->
        List.map (fun n -> (n, e.name)) (e.name :: e.aliases))
      Chaos.scenarios
  in
  Alcotest.(check int) "names and aliases unique" (List.length names)
    (List.length (List.sort_uniq compare (List.map fst names)));
  List.iter
    (fun (n, name) ->
      Alcotest.(check (option string)) n (Some name) (resolve n))
    names;
  Alcotest.(check (option string)) "unknown name" None (resolve "nope")

let test_run_replays () =
  let sch = Chaos.gen Chaos.Disk ~seed:5 ~index:2 in
  let a = Chaos.run_one Chaos.Disk sch in
  let b = Chaos.run_one Chaos.Disk sch in
  Alcotest.(check string) "same schedule, same digest" a.Chaos.digest
    b.Chaos.digest;
  Alcotest.(check (list string)) "no violations" [] a.Chaos.violations;
  Alcotest.(check bool) "history non-trivial" true (a.Chaos.ops >= 20)

(* A bcache refill that gives up under a long disk-error window fails
   its one request; it must not kill the cache shard, or the store
   blocks on that shard forever and the recovery oracle fires. *)
let test_disk_refill_give_up_recovers () =
  let sch = Schedule.of_string "seed=2668 disk(p=0.70)@46498+258496" in
  let o = Chaos.run_one Chaos.Disk sch in
  Alcotest.(check (list string)) "no violations" [] o.Chaos.violations

(* Every registered scenario, a small campaign each: all oracles
   green, a non-trivial history, and faults from its palette explored
   and fired.  The pinned registry digest below fixes which kinds. *)
let test_campaign_green () =
  List.iter
    (fun (e : Chaos.entry) ->
      let r = Chaos.campaign ~seed:17 [ (e.scenario, 6) ] in
      Alcotest.(check int) (e.name ^ ": runs") 6 r.Chaos.runs;
      Alcotest.(check int)
        (e.name ^ ": all oracles green")
        0
        (List.length r.Chaos.violations);
      Alcotest.(check bool) (e.name ^ ": ops recorded") true
        (r.Chaos.total_ops > 30);
      Alcotest.(check bool) (e.name ^ ": faults explored") true
        (r.Chaos.kinds <> []);
      Alcotest.(check bool) (e.name ^ ": faults fired") true
        (r.Chaos.faults_injected > 0))
    Chaos.scenarios

(* The whole registry, 2 schedules each in registry order, pinned: any
   change to a body, a palette, the registry order or the campaign
   merge moves this digest, and so does any change to the charges of
   the kernel services a scenario runs. *)
let test_registry_digest () =
  let r =
    Chaos.campaign ~seed:42
      (List.map (fun (e : Chaos.entry) -> (e.scenario, 2)) Chaos.scenarios)
  in
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations);
  Alcotest.(check string) "campaign digest" "df3778894f6c6132a34ecfe60ed01d1e"
    r.Chaos.campaign_digest

(* The lease-safety claim (DESIGN.md D13): kill each node in turn
   while the cluster runs the batched, leased hot path — one of the
   three is the leader, killed while holding a live lease — and the
   linearizability oracle must stay green (no deposed leader served a
   stale local read).  The runs must also have actually exercised the
   lease path, or the claim is vacuous, and must replay
   byte-identically. *)
let test_lease_kill_no_stale_reads () =
  let leased_total = ref 0 in
  for node = 0 to 2 do
    let sch =
      { Schedule.seed = 40 + node;
        faults = [ Schedule.Kill_node { node; at = 1_200_000 } ] }
    in
    let a = Chaos.run_one Chaos.Kv_lease sch in
    let b = Chaos.run_one Chaos.Kv_lease sch in
    Alcotest.(check (list string))
      (Printf.sprintf "kill node %d: no violations" node)
      [] a.Chaos.violations;
    Alcotest.(check string)
      (Printf.sprintf "kill node %d: replays" node)
      a.Chaos.digest b.Chaos.digest;
    leased_total := !leased_total + a.Chaos.leased_reads
  done;
  Alcotest.(check bool) "lease path exercised" true (!leased_total > 0)

(* Per-scenario campaigns for the two cluster-client scenarios, at the
   sizes they had before the registry; [campaign-green] covers every
   scenario at a common size. *)
let test_lease_campaign_green () =
  let r = Chaos.campaign ~seed:17 [ (Chaos.Kv_lease, 6) ] in
  Alcotest.(check int) "runs" 6 r.Chaos.runs;
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations)

(* The gray claim: per-link delay and asymmetric partition windows
   against clients running breakers and deadline budgets — the
   liveness oracle (every op returns within budget + slack) and
   linearizability must both stay green, and runs must replay
   byte-identically. *)
let test_gray_run_replays () =
  let sch = Chaos.gen Chaos.Gray ~seed:11 ~index:2 in
  let a = Chaos.run_one Chaos.Gray sch in
  let b = Chaos.run_one Chaos.Gray sch in
  Alcotest.(check string) "same schedule, same digest" a.Chaos.digest
    b.Chaos.digest;
  Alcotest.(check (list string)) "no violations" [] a.Chaos.violations;
  Alcotest.(check bool) "history non-trivial" true (a.Chaos.ops >= 10)

let test_gray_campaign_green () =
  let r = Chaos.campaign ~seed:17 [ (Chaos.Gray, 8) ] in
  Alcotest.(check int) "runs" 8 r.Chaos.runs;
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations);
  Alcotest.(check bool) "gray fault kinds explored" true
    (List.exists
       (fun (k, n) -> (k = "link-delay" || k = "partition") && n > 0)
       r.Chaos.kinds)

(* A stale candidate must not hold off every election.  A one-way cut
   drops node 2's frames to node 1, so node 1 stops hearing its leader
   and campaigns for terms its log cannot win.  Each of its vote
   requests is refused, and a refused vote must leave the voter's
   election timer alone, or the replicas that could win never time out
   and the shard stays leaderless after the cut heals (the final read
   of k0 then gets no answer). *)
let test_gray_stale_candidate () =
  let sch = Schedule.of_string "seed=3301 partition(2>1)@1567409+517164" in
  let o = Chaos.run_one Chaos.Gray sch in
  Alcotest.(check (list string)) "no violations" [] o.Chaos.violations

(* The quiescence oracle sees a leaked fiber in the projfs scenario:
   its baseline leaves out the supervisor and the provider child that
   [Supervisor.stop] ends before the check, so the daemon [~corrupt]
   plants is one fiber over it, with or without faults. *)
let test_projfs_planted_leak () =
  List.iter
    (fun index ->
      let sch = Chaos.gen Chaos.Projfs ~seed:1 ~index in
      let quiesce (o : Chaos.outcome) =
        List.filter (String.starts_with ~prefix:"quiesce:") o.violations
      in
      let what = Schedule.to_string sch in
      Alcotest.(check (list string)) (what ^ ": clean") []
        (quiesce (Chaos.run_one Chaos.Projfs sch));
      Alcotest.(check bool) (what ^ ": leak seen") true
        (quiesce (Chaos.run_one ~corrupt:true Chaos.Projfs sch) <> []))
    [ 0; 2 ]

(* The quiescence oracle can fire in every scenario: for each registry
   entry, at seed 1, a clean run reports no leak and a run with the
   daemon [~corrupt] plants reports one, with and without faults.  The
   kv scenarios take their baseline before [Cluster.start] and drain
   the fabric before the check, so nothing the cluster or a frame in
   flight started is left to hide a leak behind. *)
let test_planted_leak_every_scenario () =
  List.iter
    (fun (e : Chaos.entry) ->
      List.iter
        (fun index ->
          let sch = Chaos.gen e.scenario ~seed:1 ~index in
          let quiesce (o : Chaos.outcome) =
            List.filter (String.starts_with ~prefix:"quiesce:") o.violations
          in
          let what = e.name ^ " " ^ Schedule.to_string sch in
          Alcotest.(check (list string)) (what ^ ": clean") []
            (quiesce (Chaos.run_one e.scenario sch));
          Alcotest.(check bool) (what ^ ": leak seen") true
            (quiesce (Chaos.run_one ~corrupt:true e.scenario sch) <> []))
        [ 0; 2 ])
    Chaos.scenarios

(* DESIGN D11 beyond the VFS: tracing and metrics never move a run.
   Each scenario runs a schedule bare, then again with a metrics
   registry installed and a trace ring behind the run, so that the
   instrumentation of Raft, the cluster client, the net stack, the
   service endpoints and the projected mount all runs; the digests
   must be equal. *)
let test_instrumentation_moves_nothing () =
  List.iter
    (fun (e : Chaos.entry) ->
      List.iter
        (fun index ->
          let sch = Chaos.gen e.scenario ~seed:1 ~index in
          let bare = Chaos.run_one e.scenario sch in
          let reg = Metrics.create () in
          let traced = ref [] in
          Metrics.install reg;
          Runtime.set_default_trace
            (Some
               (fun () ->
                 let sink, get, _ = Trace.ring ~capacity:65_536 () in
                 traced := get :: !traced;
                 sink));
          let observed =
            Fun.protect
              ~finally:(fun () ->
                Runtime.set_default_trace None;
                Metrics.uninstall ())
              (fun () -> Chaos.run_one e.scenario sch)
          in
          let what = e.name ^ " " ^ Schedule.to_string sch in
          Alcotest.(check bool) (what ^ ": traced") true
            (List.exists (fun get -> get () <> []) !traced);
          Alcotest.(check bool) (what ^ ": metrics registered") true
            (Metrics.snapshot reg <> []);
          Alcotest.(check string) (what ^ ": digest") bare.Chaos.digest
            observed.Chaos.digest)
        [ 0; 2; 5 ])
    Chaos.scenarios

let test_selftest () =
  let st = Chaos.selftest ~seed:11 in
  Alcotest.(check bool) "planted violation caught" true st.Chaos.caught;
  Alcotest.(check int) "shrinks to zero faults" 0 st.Chaos.minimal_faults;
  Alcotest.(check bool) "minimal schedule replays" true
    st.Chaos.st_replay_identical

let () =
  Alcotest.run "chaos"
    [ ( "lin",
        [ Alcotest.test_case "sequential" `Quick test_lin_sequential;
          Alcotest.test_case "concurrent" `Quick test_lin_concurrent;
          Alcotest.test_case "stale-read" `Quick test_lin_stale_read;
          Alcotest.test_case "lost-write" `Quick test_lin_lost_write;
          Alcotest.test_case "lost-read" `Quick test_lin_lost_read ] );
      ( "arm",
        [ Alcotest.test_case "unsorted faults fire in time order" `Quick
            test_arm_time_order;
          Alcotest.test_case "a fault past the workload still fires" `Quick
            test_arm_outlives_workload;
          Alcotest.test_case "a kill-node on a down node is not counted"
            `Quick test_arm_kill_node_down ] );
      ( "schedule",
        [ Alcotest.test_case "subschedules" `Quick test_schedule_subschedules;
          Alcotest.test_case "link-fault round trip" `Quick
            test_schedule_link_fault_round_trip;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_schedule_malformed_partition_rejected ] );
      ( "engine",
        [ Alcotest.test_case "gen-deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "run-replays" `Quick test_run_replays;
          Alcotest.test_case "disk refill give-up recovers" `Quick
            test_disk_refill_give_up_recovers;
          Alcotest.test_case "registry-names" `Quick test_registry_names;
          Alcotest.test_case "campaign-green" `Quick test_campaign_green;
          Alcotest.test_case "registry-digest" `Quick test_registry_digest;
          Alcotest.test_case "lease-kill" `Quick test_lease_kill_no_stale_reads;
          Alcotest.test_case "lease-campaign" `Quick test_lease_campaign_green;
          Alcotest.test_case "gray-replays" `Quick test_gray_run_replays;
          Alcotest.test_case "gray-campaign" `Quick test_gray_campaign_green;
          Alcotest.test_case "gray stale candidate" `Quick
            test_gray_stale_candidate;
          Alcotest.test_case "selftest" `Quick test_selftest;
          Alcotest.test_case "projfs planted leak" `Quick
            test_projfs_planted_leak;
          Alcotest.test_case "instrumentation moves no run" `Quick
            test_instrumentation_moves_nothing;
          Alcotest.test_case "planted leak in every scenario" `Quick
            test_planted_leak_every_scenario ] ) ]
