(* Unit and property tests for the chorus runtime: fibers, channels,
   choice, lifecycle, determinism. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine

let cfg ?policy ?(cores = 4) ?(seed = 42) () =
  Runtime.config ?policy ~seed (Machine.mesh ~cores)

let run ?policy ?cores ?seed main = Runtime.run (cfg ?policy ?cores ?seed ()) main

(* ------------------------------------------------------------------ *)

let test_empty_run () =
  let stats = run (fun () -> ()) in
  Alcotest.(check bool) "makespan positive" true (stats.Runstats.makespan > 0)

let test_work_charges () =
  let s1 = run (fun () -> Fiber.work 1_000) in
  let s2 = run (fun () -> Fiber.work 50_000) in
  Alcotest.(check bool) "longer work, longer makespan" true
    (s2.Runstats.makespan > s1.Runstats.makespan + 40_000)

let test_spawn_join () =
  let result = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let f = Fiber.spawn (fun () -> result := 41) in
        (match Fiber.join f with
        | Fiber.Normal -> incr result
        | Fiber.Crashed _ | Fiber.Killed -> ());
        ())
  in
  Alcotest.(check int) "child ran then joined" 42 !result

let test_join_crashed () =
  let saw = ref "" in
  let (_ : Runstats.t) =
    run (fun () ->
        let f = Fiber.spawn (fun () -> failwith "boom") in
        match Fiber.join f with
        | Fiber.Crashed (Failure m) -> saw := m
        | _ -> saw := "wrong")
  in
  Alcotest.(check string) "crash visible to joiner" "boom" !saw

let test_main_crash_propagates () =
  Alcotest.check_raises "main crash re-raised" (Failure "mainboom")
    (fun () -> ignore (run (fun () -> failwith "mainboom")))

let test_rendezvous_order () =
  let got = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.rendezvous () in
        let producer =
          Fiber.spawn (fun () -> List.iter (Chan.send c) [ 1; 2; 3; 4; 5 ])
        in
        for _ = 1 to 5 do
          got := Chan.recv c :: !got
        done;
        ignore (Fiber.join producer))
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_rendezvous_blocks_sender () =
  (* sender must not proceed past a rendezvous send until recv happens *)
  let progress = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.rendezvous () in
        let s =
          Fiber.spawn (fun () ->
              progress := "before" :: !progress;
              Chan.send c ();
              progress := "after" :: !progress)
        in
        Fiber.sleep 10_000;
        progress := "pre-recv" :: !progress;
        Chan.recv c;
        ignore (Fiber.join s))
  in
  Alcotest.(check (list string))
    "send completed only after recv"
    [ "before"; "pre-recv"; "after" ]
    (List.rev !progress)

let test_buffered_capacity () =
  let sent = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 3 in
        let s =
          Fiber.spawn (fun () ->
              for i = 1 to 10 do
                Chan.send c i;
                sent := i
              done)
        in
        Fiber.sleep 100_000;
        (* by now the producer must be stuck at capacity *)
        Alcotest.(check int) "producer filled the buffer then blocked" 3 !sent;
        for i = 1 to 10 do
          Alcotest.(check int) "value" i (Chan.recv c)
        done;
        ignore (Fiber.join s))
  in
  ()

let test_unbounded_never_blocks () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.unbounded () in
        for i = 1 to 1000 do
          Chan.send c i
        done;
        for i = 1 to 1000 do
          Alcotest.(check int) "drain order" i (Chan.recv c)
        done)
  in
  ()

let test_try_ops () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Alcotest.(check (option int)) "empty try_recv" None (Chan.try_recv c);
        Alcotest.(check bool) "try_send into room" true (Chan.try_send c 7);
        Alcotest.(check bool) "try_send full" false (Chan.try_send c 8);
        Alcotest.(check (option int)) "try_recv" (Some 7) (Chan.try_recv c);
        let r = Chan.rendezvous () in
        Alcotest.(check bool) "rendezvous try_send no receiver" false
          (Chan.try_send r 1))
  in
  ()

let test_close_semantics () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 4 in
        Chan.send c 1;
        Chan.send c 2;
        Chan.close c;
        Alcotest.(check int) "buffered survives close" 1 (Chan.recv c);
        Alcotest.(check int) "buffered survives close" 2 (Chan.recv c);
        Alcotest.check_raises "drained close raises" Chan.Closed (fun () ->
            ignore (Chan.recv c));
        Alcotest.check_raises "send after close raises" Chan.Closed (fun () ->
            Chan.send c 3))
  in
  ()

let test_close_wakes_blocked_receiver () =
  let aborted = ref false in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.rendezvous () in
        let r =
          Fiber.spawn (fun () ->
              match Chan.recv c with
              | _ -> ()
              | exception Chan.Closed -> aborted := true)
        in
        Fiber.sleep 1_000;
        Chan.close c;
        ignore (Fiber.join r))
  in
  Alcotest.(check bool) "blocked receiver aborted" true !aborted

let test_channels_over_channels () =
  (* the paper's plumbing idiom: pass a data channel through a control
     channel, then talk directly *)
  let sum = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let control = Chan.rendezvous () in
        let _server =
          Fiber.spawn ~daemon:true (fun () ->
              let data = Chan.recv control in
              for i = 1 to 10 do
                Chan.send data i
              done)
        in
        let data = Chan.buffered 4 in
        Chan.send control data;
        for _ = 1 to 10 do
          sum := !sum + Chan.recv data
        done)
  in
  Alcotest.(check int) "plumbed channel carried data" 55 !sum

let test_choice_picks_ready () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered 1 and b = Chan.buffered 1 in
        Chan.send b 99;
        let got =
          Chan.choose
            [ Chan.recv_case a (fun v -> ("a", v));
              Chan.recv_case b (fun v -> ("b", v)) ]
        in
        Alcotest.(check (pair string int)) "ready case wins" ("b", 99) got)
  in
  ()

let test_choice_blocks_until_ready () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.rendezvous () and b = Chan.rendezvous () in
        let _sender =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 5_000;
              Chan.send a 7)
        in
        let got =
          Chan.choose
            [ Chan.recv_case a (fun v -> v); Chan.recv_case b (fun v -> v) ]
        in
        Alcotest.(check int) "blocked choice woken" 7 got)
  in
  ()

let test_choice_timeout () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.rendezvous () in
        let t0 = Fiber.now () in
        let got =
          Chan.choose
            [ Chan.recv_case a (fun _ -> "data"); Chan.after 10_000 (fun () -> "timeout") ]
        in
        Alcotest.(check string) "timeout fired" "timeout" got;
        Alcotest.(check bool) "waited about the timeout" true
          (Fiber.now () - t0 >= 10_000))
  in
  ()

let test_choice_default () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.rendezvous () in
        let got =
          Chan.choose
            [ Chan.recv_case a (fun _ -> "data");
              Chan.default (fun () -> "default") ]
        in
        Alcotest.(check string) "default taken when idle" "default" got)
  in
  ()

let test_choice_commit_once () =
  (* one choice over two channels; both eventually ready; exactly one
     consumed.  The other channel must still hold its value. *)
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered 1 and b = Chan.buffered 1 in
        let _s =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 2_000;
              Chan.send a 1;
              Chan.send b 2)
        in
        let _got =
          Chan.choose
            [ Chan.recv_case a (fun v -> v); Chan.recv_case b (fun v -> v) ]
        in
        Fiber.sleep 50_000;
        let remaining = Chan.length a + Chan.length b in
        Alcotest.(check int) "exactly one value consumed" 1 remaining)
  in
  ()

let test_choice_send_case () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.rendezvous () in
        let got = ref 0 in
        let _r =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 3_000;
              got := Chan.recv a)
        in
        let tag =
          Chan.choose [ Chan.send_case a 42 (fun () -> "sent") ]
        in
        Fiber.sleep 50_000;
        Alcotest.(check string) "send case fired" "sent" tag;
        Alcotest.(check int) "value arrived" 42 !got)
  in
  ()

let test_choice_send_full_no_commit () =
  (* a send case on a full buffered channel is not ready: the choice
     must take the timeout arm and leave the channel untouched *)
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Chan.send c 1;
        let tag =
          Chan.choose
            [ Chan.send_case c 2 (fun () -> "sent");
              Chan.after 10_000 (fun () -> "timeout") ]
        in
        Alcotest.(check string) "timeout wins over full channel" "timeout"
          tag;
        Fiber.sleep 50_000;
        Alcotest.(check int) "nothing enqueued" 1 (Chan.length c);
        Alcotest.(check int) "original value intact" 1 (Chan.recv c))
  in
  ()

let test_choice_send_full_commits_after_drain () =
  (* the same send case commits exactly once when a receiver frees the
     slot, and never double-delivers *)
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Chan.send c 1;
        let first = ref 0 in
        let _consumer =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 5_000;
              first := Chan.recv c)
        in
        let tag =
          Chan.choose [ Chan.send_case c 2 (fun () -> "sent") ]
        in
        Fiber.sleep 50_000;
        Alcotest.(check string) "send committed once unblocked" "sent" tag;
        Alcotest.(check int) "consumer saw the original" 1 !first;
        Alcotest.(check int) "exactly one value enqueued" 1 (Chan.length c);
        Alcotest.(check int) "it is the chosen send's value" 2 (Chan.recv c))
  in
  ()

let test_choice_send_full_beats_late_timeout () =
  (* slot frees before the timeout arm fires: the send must win, and
     the timeout must not also have committed anything *)
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Chan.send c 1;
        let _consumer =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 5_000;
              ignore (Chan.recv c))
        in
        let tag =
          Chan.choose
            [ Chan.send_case c 2 (fun () -> "sent");
              Chan.after 200_000 (fun () -> "timeout") ]
        in
        Fiber.sleep 300_000;
        Alcotest.(check string) "send wins when freed in time" "sent" tag;
        Alcotest.(check int) "committed exactly once" 1 (Chan.length c))
  in
  ()

let test_choice_poll_strategy () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.rendezvous () in
        let _s =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 5_000;
              Chan.send a 5)
        in
        let got =
          Chan.choose ~strategy:(Chan.Poll 500)
            [ Chan.recv_case a (fun v -> v) ]
        in
        Alcotest.(check int) "poll choice eventually receives" 5 got)
  in
  ()

let test_choice_timeout_deadline_is_now () =
  (* the boundary tick: a timeout arm whose absolute deadline equals
     the instant the choice starts ([after 0]) fires exactly once,
     without waiting for a later tick *)
  let (_ : Runstats.t) =
    run (fun () ->
        let never : int Chan.t = Chan.rendezvous () in
        let fired = ref 0 in
        let t0 = Fiber.now () in
        Chan.choose
          [ Chan.recv_case never (fun _ -> ());
            Chan.after 0 (fun () -> incr fired) ];
        Alcotest.(check int) "fired exactly once" 1 !fired;
        Alcotest.(check bool)
          (Printf.sprintf "fired at its deadline tick (+%d)"
             (Fiber.now () - t0))
          true
          (Fiber.now () - t0 < 1_000))
  in
  ()

let test_choice_equal_deadlines_fire_once () =
  (* two timeout arms sharing one absolute deadline: the commit cell
     must let exactly one of them through *)
  let (_ : Runstats.t) =
    run (fun () ->
        let never : int Chan.t = Chan.rendezvous () in
        let fired = ref 0 in
        Chan.choose
          [ Chan.recv_case never (fun _ -> ());
            Chan.after 500 (fun () -> incr fired);
            Chan.after 500 (fun () -> incr fired) ];
        Fiber.sleep 5_000;
        Alcotest.(check int) "equal deadlines, one firing" 1 !fired)
  in
  ()

let test_choice_poll_timeout_boundary () =
  (* poll strategy rechecks [now - start >= n] every tick: the arm
     must fire on the first tick at-or-past the deadline, never
     before it, and only once even though later polls would also see
     the deadline as passed *)
  let (_ : Runstats.t) =
    run (fun () ->
        let never : int Chan.t = Chan.rendezvous () in
        let fired = ref 0 in
        let t0 = Fiber.now () in
        Chan.choose ~strategy:(Chan.Poll 100)
          [ Chan.recv_case never (fun _ -> ());
            Chan.after 1_000 (fun () -> incr fired) ];
        Alcotest.(check int) "fired exactly once" 1 !fired;
        Alcotest.(check bool) "not before the deadline" true
          (Fiber.now () - t0 >= 1_000))
  in
  ()

let test_deadlock_detected () =
  let raised = ref false in
  (try
     ignore
       (run (fun () ->
            let c = Chan.rendezvous () in
            ignore (Chan.recv c)))
   with Engine.Deadlock _ -> raised := true);
  Alcotest.(check bool) "deadlock raised" true !raised

let test_daemon_not_deadlock () =
  (* a daemon blocked forever must not fail the run *)
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.rendezvous () in
        let _d = Fiber.spawn ~daemon:true (fun () -> ignore (Chan.recv c)) in
        Fiber.work 100)
  in
  ()

let test_kill_blocked () =
  let status = ref "" in
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.rendezvous () in
        let f = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        Fiber.sleep 1_000;
        Fiber.kill f;
        (match Fiber.join f with
        | Fiber.Killed -> status := "killed"
        | Fiber.Normal -> status := "normal"
        | Fiber.Crashed _ -> status := "crashed"))
  in
  Alcotest.(check string) "blocked fiber killed" "killed" !status

let test_kill_runs_cleanup () =
  let cleaned = ref false in
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.rendezvous () in
        let f =
          Fiber.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> cleaned := true)
                (fun () -> ignore (Chan.recv c)))
        in
        Fiber.sleep 1_000;
        Fiber.kill f;
        ignore (Fiber.join f))
  in
  Alcotest.(check bool) "finally ran on kill" true !cleaned

let test_monitor_immediate () =
  let count = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let f = Fiber.spawn (fun () -> ()) in
        ignore (Fiber.join f);
        (* monitoring an already-dead fiber fires immediately *)
        Fiber.monitor f (fun ~time:_ _ -> incr count);
        Fiber.monitor f (fun ~time:_ _ -> incr count))
  in
  Alcotest.(check int) "both monitors fired" 2 !count

let test_sleep_advances_time () =
  let (_ : Runstats.t) =
    run (fun () ->
        let t0 = Fiber.now () in
        Fiber.sleep 123_456;
        Alcotest.(check bool) "time advanced" true
          (Fiber.now () >= t0 + 123_456))
  in
  ()

(* A call as a message pair on bare channels: c <- (a, c1); r <- c1. *)
let test_rpc_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let inbox = Chan.unbounded () in
        let _server =
          Fiber.spawn ~daemon:true (fun () ->
              while true do
                let x, reply = Chan.recv inbox in
                Chan.send reply (x * 2)
              done)
        in
        let call x =
          let reply = Chan.buffered 1 in
          Chan.send inbox (x, reply);
          Chan.recv reply
        in
        Alcotest.(check int) "rpc" 42 (call 21);
        Alcotest.(check int) "rpc again" 10 (call 5))
  in
  ()

let test_determinism () =
  let go () =
    run ~policy:(Policy.work_steal ()) ~seed:7 (fun () ->
        let c = Chan.buffered 8 in
        let fibers =
          List.init 16 (fun i ->
              Fiber.spawn (fun () ->
                  Fiber.work (100 * (i + 1));
                  Chan.send c i;
                  Fiber.yield ();
                  Fiber.work 50))
        in
        for _ = 1 to 16 do
          ignore (Chan.recv c)
        done;
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  let s1 = go () and s2 = go () in
  Alcotest.(check int) "same makespan" s1.Runstats.makespan s2.Runstats.makespan;
  Alcotest.(check int) "same events" s1.Runstats.events s2.Runstats.events;
  Alcotest.(check int) "same msgs" s1.Runstats.msgs s2.Runstats.msgs

let test_remote_costs_more () =
  (* same ping-pong, neighbours vs far corners of a mesh *)
  let pingpong c0 c1 =
    run ~cores:64 (fun () ->
        let req = Chan.rendezvous () and resp = Chan.rendezvous () in
        let _echo =
          Fiber.spawn ~on:c1 ~daemon:true (fun () ->
              let rec loop () =
                let v = Chan.recv req in
                Chan.send resp v;
                loop ()
              in
              loop ())
        in
        let f =
          Fiber.spawn ~on:c0 (fun () ->
              for i = 1 to 100 do
                Chan.send req i;
                ignore (Chan.recv resp)
              done)
        in
        ignore (Fiber.join f))
  in
  let near = pingpong 0 1 in
  let far = pingpong 0 63 in
  Alcotest.(check bool) "cross-chip ping-pong slower" true
    (far.Runstats.makespan > near.Runstats.makespan)

let test_spawn_placement_policies () =
  List.iter
    (fun policy ->
      let s =
        run ~policy ~cores:8 (fun () ->
            let fibers =
              List.init 32 (fun _ -> Fiber.spawn (fun () -> Fiber.work 1_000))
            in
            List.iter (fun f -> ignore (Fiber.join f)) fibers)
      in
      Alcotest.(check bool)
        (Policy.name policy ^ " completes")
        true
        (s.Runstats.makespan > 0))
    (Policy.all ())

let test_parallelism_speedup () =
  (* independent work should get faster with more cores under a
     spreading policy *)
  let go cores =
    run ~policy:(Policy.round_robin ()) ~cores (fun () ->
        let fibers =
          List.init 64 (fun _ -> Fiber.spawn (fun () -> Fiber.work 10_000))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  let s1 = go 1 and s16 = go 16 in
  let speedup =
    float_of_int s1.Runstats.makespan /. float_of_int s16.Runstats.makespan
  in
  Alcotest.(check bool)
    (Printf.sprintf "16 cores at least 4x faster (got %.1fx)" speedup)
    true (speedup > 4.0)

let test_trace_collects () =
  let sink, get = Chorus.Trace.collector () in
  let cfg =
    Runtime.config ~trace:sink (Machine.mesh ~cores:2)
  in
  let (_ : Runstats.t) =
    Runtime.run cfg (fun () ->
        let c = Chan.buffered 1 in
        let f = Fiber.spawn (fun () -> Chan.send c 1) in
        ignore (Chan.recv c);
        ignore (Fiber.join f))
  in
  let records = get () in
  let has p = List.exists p records in
  Alcotest.(check bool) "spawn traced" true
    (has (fun r -> match r.Chorus.Trace.event with
       | Chorus.Trace.Spawn _ -> true | _ -> false));
  Alcotest.(check bool) "send traced" true
    (has (fun r -> match r.Chorus.Trace.event with
       | Chorus.Trace.Send _ -> true | _ -> false))

(* A fixed 1024-core stealing run: 256 fibers spawned on cores 0-3,
   each doing 40 rounds of work and yield, spread over the chip by
   push-assisted wakes and idle-core steal polling. *)
let steal_1024_cfg =
  Runtime.config ~policy:(Policy.work_steal ()) (Machine.mesh ~cores:1024)

let steal_1024_main () =
  let fibers =
    List.init 256 (fun i ->
        Fiber.spawn ~on:(i mod 4) (fun () ->
            for _ = 1 to 40 do
              Fiber.work 500;
              Fiber.yield ()
            done))
  in
  List.iter (fun f -> ignore (Fiber.join f)) fibers

let test_steal_1024_pinned () =
  let s = Runtime.run steal_1024_cfg steal_1024_main in
  Alcotest.(check int) "makespan" 50642 s.Runstats.makespan;
  Alcotest.(check int) "events" 21817 s.Runstats.events;
  Alcotest.(check int) "steals" 2 s.Runstats.steals

let test_steal_1024_alloc_budget () =
  (* a first run warms whatever is built once per process *)
  ignore (Runtime.run steal_1024_cfg steal_1024_main : Runstats.t);
  let w0 = Gc.minor_words () in
  let s = Runtime.run steal_1024_cfg steal_1024_main in
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int s.Runstats.events
  in
  (* 28.9 minor words per event; 46.5 with a boxed-key event heap, a
     dispatch closure per kick and a policy view per steal attempt *)
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event <= 36" per_event)
    true (per_event <= 36.0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let prop_fifo_any_capacity =
  QCheck.Test.make ~name:"channel is FIFO at any capacity" ~count:50
    QCheck.(pair (int_range 1 64) (list_of_size Gen.(1 -- 50) small_nat))
    (fun (capacity, xs) ->
      let received = ref [] in
      let (_ : Runstats.t) =
        run (fun () ->
            let c = Chan.buffered capacity in
            let p = Fiber.spawn (fun () -> List.iter (Chan.send c) xs) in
            for _ = 1 to List.length xs do
              received := Chan.recv c :: !received
            done;
            ignore (Fiber.join p))
      in
      List.rev !received = xs)

let prop_rendezvous_conserves =
  QCheck.Test.make ~name:"n producers, 1 consumer: all values arrive"
    ~count:30
    QCheck.(int_range 1 8)
    (fun nprod ->
      let total = ref 0 in
      let per = 20 in
      let (_ : Runstats.t) =
        run ~policy:Policy.random (fun () ->
            let c = Chan.rendezvous () in
            let prods =
              List.init nprod (fun _ ->
                  Fiber.spawn (fun () ->
                      for _ = 1 to per do
                        Chan.send c 1
                      done))
            in
            for _ = 1 to nprod * per do
              total := !total + Chan.recv c
            done;
            List.iter (fun f -> ignore (Fiber.join f)) prods)
      in
      !total = nprod * per)

let prop_deterministic_seeded =
  QCheck.Test.make ~name:"identical seeds give identical runs" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let go () =
        run ~policy:(Policy.work_steal ()) ~seed (fun () ->
            let c = Chan.buffered 4 in
            let fs =
              List.init 8 (fun i ->
                  Fiber.spawn (fun () ->
                      Fiber.work (i * 37);
                      Chan.send c i))
            in
            for _ = 1 to 8 do
              ignore (Chan.recv c)
            done;
            List.iter (fun f -> ignore (Fiber.join f)) fs)
      in
      let a = go () and b = go () in
      a.Runstats.makespan = b.Runstats.makespan
      && a.Runstats.events = b.Runstats.events)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "chorus-core"
    [ ( "engine",
        [ Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "work charges cycles" `Quick test_work_charges;
          Alcotest.test_case "spawn and join" `Quick test_spawn_join;
          Alcotest.test_case "join crashed" `Quick test_join_crashed;
          Alcotest.test_case "main crash propagates" `Quick
            test_main_crash_propagates;
          Alcotest.test_case "sleep advances time" `Quick
            test_sleep_advances_time;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "daemons exempt from deadlock" `Quick
            test_daemon_not_deadlock;
          Alcotest.test_case "kill blocked fiber" `Quick test_kill_blocked;
          Alcotest.test_case "kill runs cleanup" `Quick test_kill_runs_cleanup;
          Alcotest.test_case "monitor after death" `Quick
            test_monitor_immediate;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "remote messages cost more" `Quick
            test_remote_costs_more;
          Alcotest.test_case "all policies complete" `Quick
            test_spawn_placement_policies;
          Alcotest.test_case "multicore speedup" `Quick
            test_parallelism_speedup;
          Alcotest.test_case "trace collects" `Quick test_trace_collects;
          Alcotest.test_case "steal at 1024 cores pinned" `Quick
            test_steal_1024_pinned;
          Alcotest.test_case "steal at 1024 cores allocation budget" `Quick
            test_steal_1024_alloc_budget ] );
      ( "chan",
        [ Alcotest.test_case "rendezvous order" `Quick test_rendezvous_order;
          Alcotest.test_case "rendezvous blocks sender" `Quick
            test_rendezvous_blocks_sender;
          Alcotest.test_case "buffered capacity" `Quick test_buffered_capacity;
          Alcotest.test_case "unbounded" `Quick test_unbounded_never_blocks;
          Alcotest.test_case "try ops" `Quick test_try_ops;
          Alcotest.test_case "close semantics" `Quick test_close_semantics;
          Alcotest.test_case "close wakes blocked" `Quick
            test_close_wakes_blocked_receiver;
          Alcotest.test_case "channels over channels" `Quick
            test_channels_over_channels ] );
      ( "choice",
        [ Alcotest.test_case "picks ready" `Quick test_choice_picks_ready;
          Alcotest.test_case "blocks until ready" `Quick
            test_choice_blocks_until_ready;
          Alcotest.test_case "timeout" `Quick test_choice_timeout;
          Alcotest.test_case "default" `Quick test_choice_default;
          Alcotest.test_case "commits exactly once" `Quick
            test_choice_commit_once;
          Alcotest.test_case "send case" `Quick test_choice_send_case;
          Alcotest.test_case "send case on full channel stays pending"
            `Quick test_choice_send_full_no_commit;
          Alcotest.test_case "send case commits once after drain" `Quick
            test_choice_send_full_commits_after_drain;
          Alcotest.test_case "send case beats a later timeout" `Quick
            test_choice_send_full_beats_late_timeout;
          Alcotest.test_case "poll strategy" `Quick test_choice_poll_strategy;
          Alcotest.test_case "timeout deadline = now" `Quick
            test_choice_timeout_deadline_is_now;
          Alcotest.test_case "equal deadlines fire once" `Quick
            test_choice_equal_deadlines_fire_once;
          Alcotest.test_case "poll timeout boundary" `Quick
            test_choice_poll_timeout_boundary ] );
      ( "mailbox-rpc",
        [ Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip ] );
      ( "properties",
        [ qt prop_fifo_any_capacity;
          qt prop_rendezvous_conserves;
          qt prop_deterministic_seeded ] ) ]
