(* Edge-case tests for the runtime: interactions between close, kill,
   choice, timers, tracing and the scheduler that the main suite does
   not cover. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine
module Trace = Chorus.Trace

let run ?(cores = 4) ?(seed = 42) main =
  Runtime.run (Runtime.config ~seed (Machine.mesh ~cores)) main

(* ------------------------------------------------------------------ *)
(* close / choice interactions                                         *)

let test_close_aborts_blocked_choice () =
  let got = ref "" in
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let b : int Chan.t = Chan.rendezvous () in
        let chooser =
          Fiber.spawn (fun () ->
              match
                Chan.choose
                  [ Chan.recv_case a (fun _ -> "a");
                    Chan.recv_case b (fun _ -> "b") ]
              with
              | s -> got := s
              | exception Chan.Closed -> got := "closed")
        in
        Fiber.sleep 1_000;
        Chan.close a;
        ignore (Fiber.join chooser))
  in
  Alcotest.(check string) "choice aborted by close" "closed" !got

let test_closed_channel_ready_in_choice () =
  (* a closed+drained channel counts as ready; its arm raises *)
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.buffered 1 in
        Chan.close a;
        match
          Chan.choose [ Chan.recv_case a (fun _ -> "value") ]
        with
        | _ -> Alcotest.fail "expected Closed"
        | exception Chan.Closed -> ())
  in
  ()

let test_choice_drains_buffer_of_closed_channel () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered 2 in
        Chan.send a 1;
        Chan.send a 2;
        Chan.close a;
        let v1 = Chan.choose [ Chan.recv_case a (fun v -> v) ] in
        let v2 = Chan.choose [ Chan.recv_case a (fun v -> v) ] in
        Alcotest.(check (list int)) "buffered survive close" [ 1; 2 ]
          [ v1; v2 ])
  in
  ()

let test_kill_blocked_choice_leaves_channels_clean () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let b : int Chan.t = Chan.rendezvous () in
        let chooser =
          Fiber.spawn (fun () ->
              ignore
                (Chan.choose
                   [ Chan.recv_case a (fun v -> v);
                     Chan.recv_case b (fun v -> v) ]))
        in
        Fiber.sleep 1_000;
        Fiber.kill chooser;
        ignore (Fiber.join chooser);
        (* stale registrations must not swallow a later send *)
        let r = Fiber.spawn (fun () -> ignore (Chan.recv a)) in
        Fiber.sleep 1_000;
        Chan.send a 42;
        ignore (Fiber.join r))
  in
  ()

let test_two_choices_race_one_value () =
  let winners = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let make_chooser () =
          Fiber.spawn (fun () ->
              match
                Chan.choose
                  [ Chan.recv_case a (fun v -> v);
                    Chan.after 100_000 (fun () -> -1) ]
              with
              | -1 -> ()
              | _ -> incr winners)
        in
        let c1 = make_chooser () and c2 = make_chooser () in
        Fiber.sleep 1_000;
        Chan.send a 7;
        ignore (Fiber.join c1);
        ignore (Fiber.join c2))
  in
  Alcotest.(check int) "exactly one choice wins" 1 !winners

let test_choice_only_timers () =
  let (_ : Runstats.t) =
    run (fun () ->
        let t0 = Fiber.now () in
        let which =
          Chan.choose
            [ Chan.after 5_000 (fun () -> "slow");
              Chan.after 1_000 (fun () -> "fast") ]
        in
        Alcotest.(check string) "earliest timer" "fast" which;
        Alcotest.(check bool) "waited only the short delay" true
          (Fiber.now () - t0 < 3_000))
  in
  ()

let test_send_case_fires_when_space_frees () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Chan.send c 0;
        (* buffer full: the send case must block until the consumer
           drains *)
        let consumer =
          Fiber.spawn (fun () ->
              Fiber.sleep 5_000;
              ignore (Chan.recv c);
              ignore (Chan.recv c))
        in
        let tag =
          Chan.choose [ Chan.send_case c 1 (fun () -> "sent") ]
        in
        Alcotest.(check string) "send case completed" "sent" tag;
        ignore (Fiber.join consumer))
  in
  ()

(* ------------------------------------------------------------------ *)
(* scheduler behaviour                                                 *)

let test_yield_interleaves_on_one_core () =
  let log = ref [] in
  let (_ : Runstats.t) =
    run ~cores:1 (fun () ->
        let mk tag =
          Fiber.spawn ~on:0 (fun () ->
              for _ = 1 to 3 do
                log := tag :: !log;
                Fiber.yield ()
              done)
        in
        let a = mk "a" and b = mk "b" in
        ignore (Fiber.join a);
        ignore (Fiber.join b))
  in
  Alcotest.(check (list string)) "round-robin interleave"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_timers_fire_in_order () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let fibers =
          List.map
            (fun (delay, tag) ->
              Fiber.spawn (fun () ->
                  Fiber.sleep delay;
                  order := tag :: !order))
            [ (30_000, "c"); (10_000, "a"); (20_000, "b") ]
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  Alcotest.(check (list string)) "timer order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_deadlock_names_the_culprit () =
  (try
     ignore
       (run (fun () ->
            let c : int Chan.t = Chan.rendezvous ~label:"stuck-chan" () in
            let f =
              Fiber.spawn ~label:"the-culprit" (fun () ->
                  ignore (Chan.recv c))
            in
            ignore (Fiber.join f)));
     Alcotest.fail "expected deadlock"
   with Engine.Deadlock msg ->
     let contains needle =
       let rec go i =
         i + String.length needle <= String.length msg
         && (String.sub msg i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     Alcotest.(check bool) "names the fiber" true (contains "the-culprit");
     Alcotest.(check bool) "names the channel" true (contains "stuck-chan"))

let test_monitor_order () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let f = Fiber.spawn (fun () -> Fiber.work 1_000) in
        Fiber.monitor f (fun ~time:_ _ -> order := 1 :: !order);
        Fiber.monitor f (fun ~time:_ _ -> order := 2 :: !order);
        ignore (Fiber.join f);
        Fiber.sleep 1_000)
  in
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

let test_trace_block_then_wake () =
  let sink, get = Trace.collector () in
  let (_ : Runstats.t) =
    Runtime.run
      (Runtime.config ~trace:sink (Machine.mesh ~cores:2))
      (fun () ->
        let c = Chan.rendezvous () in
        let r = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        Fiber.sleep 2_000;
        Chan.send c 5;
        ignore (Fiber.join r))
  in
  let records = get () in
  (* the receiver must block before the sender's Send record *)
  let idx p =
    let rec go i = function
      | [] -> -1
      | r :: rest -> if p r then i else go (i + 1) rest
    in
    go 0 records
  in
  let block_i =
    idx (fun r ->
        match r.Trace.event with Trace.Block _ -> true | _ -> false)
  in
  let send_i =
    idx (fun r ->
        match r.Trace.event with Trace.Send _ -> true | _ -> false)
  in
  Alcotest.(check bool) "block precedes send" true
    (block_i >= 0 && send_i > block_i)

(* ------------------------------------------------------------------ *)
(* misc API                                                            *)

let test_try_recv_closed_raises () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.buffered 1 in
        Chan.close c;
        match Chan.try_recv c with
        | _ -> Alcotest.fail "expected Closed"
        | exception Chan.Closed -> ())
  in
  ()

let test_waiting_counters () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.rendezvous () in
        let r1 = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        let r2 = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        Fiber.sleep 1_000;
        Alcotest.(check int) "two receivers parked" 2
          (Chan.waiting_receivers c);
        Alcotest.(check int) "no senders" 0 (Chan.waiting_senders c);
        Chan.send c 1;
        Chan.send c 2;
        ignore (Fiber.join r1);
        ignore (Fiber.join r2);
        Alcotest.(check int) "drained" 0 (Chan.waiting_receivers c))
  in
  ()

let test_double_close_is_noop () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.buffered 1 in
        Chan.close c;
        Chan.close c;
        Alcotest.(check bool) "closed" true (Chan.is_closed c))
  in
  ()

let test_spawn_many_fibers () =
  (* the registry compaction path and fid allocation under volume *)
  let (_ : Runstats.t) =
    run ~cores:4 (fun () ->
        for _ = 1 to 50 do
          let fibers =
            List.init 200 (fun _ -> Fiber.spawn (fun () -> Fiber.work 10))
          in
          List.iter (fun f -> ignore (Fiber.join f)) fibers
        done)
  in
  ()

let test_engine_now_monotonic_across_ops () =
  let (_ : Runstats.t) =
    run (fun () ->
        let last = ref 0 in
        let check () =
          let n = Fiber.now () in
          Alcotest.(check bool) "monotonic" true (n >= !last);
          last := n
        in
        check ();
        Fiber.work 100;
        check ();
        Fiber.yield ();
        check ();
        Fiber.sleep 500;
        check ();
        let c = Chan.buffered 1 in
        Chan.send c ();
        check ();
        ignore (Chan.recv c);
        check ())
  in
  ()

let test_choice_fairness () =
  (* two always-ready channels: over many picks, neither starves and
     the split is roughly even (seeded rng tie-breaking) *)
  let a_wins = ref 0 in
  let n = 2_000 in
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered n and b = Chan.buffered n in
        for i = 1 to n do
          Chan.send a i;
          Chan.send b i
        done;
        for _ = 1 to n do
          Chan.choose
            [ Chan.recv_case a (fun _ -> incr a_wins);
              Chan.recv_case b (fun _ -> ()) ]
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "roughly even split (a won %d of %d)" !a_wins n)
    true
    (!a_wins > (n * 4 / 10) && !a_wins < (n * 6 / 10))

let test_buffered_never_exceeds_capacity () =
  let maxlen = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 5 in
        let producer =
          Fiber.spawn (fun () ->
              for i = 1 to 100 do
                Chan.send c i;
                maxlen := max !maxlen (Chan.length c)
              done)
        in
        let consumer =
          Fiber.spawn (fun () ->
              for _ = 1 to 100 do
                ignore (Chan.recv c);
                maxlen := max !maxlen (Chan.length c);
                if Fiber.now () mod 3 = 0 then Fiber.yield ()
              done)
        in
        ignore (Fiber.join producer);
        ignore (Fiber.join consumer))
  in
  Alcotest.(check bool)
    (Printf.sprintf "buffer bounded (peak %d)" !maxlen)
    true (!maxlen <= 5)

let () =
  Alcotest.run "chorus-core-edge"
    [ ( "close-choice",
        [ Alcotest.test_case "close aborts blocked choice" `Quick
            test_close_aborts_blocked_choice;
          Alcotest.test_case "closed channel is ready" `Quick
            test_closed_channel_ready_in_choice;
          Alcotest.test_case "drains closed buffer" `Quick
            test_choice_drains_buffer_of_closed_channel;
          Alcotest.test_case "kill leaves channels clean" `Quick
            test_kill_blocked_choice_leaves_channels_clean;
          Alcotest.test_case "two choices, one value" `Quick
            test_two_choices_race_one_value;
          Alcotest.test_case "timer-only choice" `Quick
            test_choice_only_timers;
          Alcotest.test_case "send case unblocks" `Quick
            test_send_case_fires_when_space_frees;
          Alcotest.test_case "choice fairness" `Quick test_choice_fairness;
          Alcotest.test_case "capacity invariant" `Quick
            test_buffered_never_exceeds_capacity ] );
      ( "scheduler",
        [ Alcotest.test_case "yield interleaves" `Quick
            test_yield_interleaves_on_one_core;
          Alcotest.test_case "timer order" `Quick test_timers_fire_in_order;
          Alcotest.test_case "deadlock diagnostics" `Quick
            test_deadlock_names_the_culprit;
          Alcotest.test_case "monitor order" `Quick test_monitor_order;
          Alcotest.test_case "trace block/send order" `Quick
            test_trace_block_then_wake;
          Alcotest.test_case "many fibers" `Quick test_spawn_many_fibers;
          Alcotest.test_case "now monotonic" `Quick
            test_engine_now_monotonic_across_ops ] );
      ( "api",
        [ Alcotest.test_case "try_recv closed" `Quick
            test_try_recv_closed_raises;
          Alcotest.test_case "waiting counters" `Quick test_waiting_counters;
          Alcotest.test_case "double close" `Quick test_double_close_is_noop ] ) ]
