(* Tests for the network substrate: fabric delivery/loss, port demux,
   and reliable calls over loss. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack

let run ?(cores = 16) main =
  Runtime.run
    (Runtime.config ~policy:(Policy.round_robin ()) ~seed:21
       (Machine.mesh ~cores))
    main

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)

let test_fabric_delivers_in_order () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        for i = 1 to 10 do
          Fabric.transmit a
            { Fabric.src = 0; dst = Fabric.addr b; port = 1; seq = i;
              payload = Printf.sprintf "msg-%d" i }
        done;
        for i = 1 to 10 do
          let f = Chan.recv (Fabric.rx b) in
          Alcotest.(check int) "in order" i f.Fabric.seq;
          Alcotest.(check int) "src stamped" (Fabric.addr a) f.Fabric.src
        done;
        Alcotest.(check int) "sent" 10 (Fabric.frames_sent net);
        Alcotest.(check int) "delivered" 10 (Fabric.frames_delivered net))
  in
  ()

let test_fabric_latency () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:20_000 () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        let t0 = Fiber.now () in
        Fabric.transmit a
          { Fabric.src = 0; dst = Fabric.addr b; port = 1; seq = 1;
            payload = "x" };
        ignore (Chan.recv (Fabric.rx b));
        Alcotest.(check bool) "wire latency applied" true
          (Fiber.now () - t0 >= 20_000))
  in
  ()

let test_fabric_loses_frames () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~loss:0.5 ~seed:3 () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        for i = 1 to 200 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        (* let the driver drain *)
        Fiber.sleep 1_000_000;
        let dropped = Fabric.frames_dropped net in
        Alcotest.(check bool)
          (Printf.sprintf "about half dropped (%d)" dropped)
          true
          (dropped > 60 && dropped < 140))
  in
  ()

(* Loss accounting: every transmitted frame must be accounted as
   either delivered or dropped once the drivers drain — under loss,
   under zero loss, and identically across same-seed runs. *)

let loss_counts ~loss ~seed ~frames =
  let counts = ref (0, 0, 0) in
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~loss ~seed () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        for i = 1 to frames do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "x" }
        done;
        Fiber.sleep 5_000_000;
        counts :=
          ( Fabric.frames_sent net,
            Fabric.frames_delivered net,
            Fabric.frames_dropped net ))
  in
  !counts

let test_fabric_loss_accounting () =
  let sent, delivered, dropped = loss_counts ~loss:0.2 ~seed:11 ~frames:500 in
  Alcotest.(check int) "all frames entered the fabric" 500 sent;
  Alcotest.(check int)
    (Printf.sprintf "sent = delivered + dropped (%d = %d + %d)" sent
       delivered dropped)
    sent (delivered + dropped);
  (* statistical sanity at 20% configured loss over 500 frames *)
  Alcotest.(check bool)
    (Printf.sprintf "dropped near expectation (%d)" dropped)
    true
    (dropped > 50 && dropped < 160)

let test_fabric_zero_loss_invariant () =
  let sent, delivered, dropped = loss_counts ~loss:0.0 ~seed:11 ~frames:300 in
  Alcotest.(check int) "sent" 300 sent;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "everything delivered" 300 delivered

let test_fabric_loss_deterministic () =
  let a = loss_counts ~loss:0.1 ~seed:17 ~frames:400 in
  let b = loss_counts ~loss:0.1 ~seed:17 ~frames:400 in
  let sa, da, xa = a and sb, db, xb = b in
  Alcotest.(check int) "sent agree" sa sb;
  Alcotest.(check int) "delivered agree" da db;
  Alcotest.(check int) "dropped agree" xa xb

let test_fabric_unknown_dst_dropped () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let a = Fabric.attach net () in
        Fabric.transmit a
          { Fabric.src = 0; dst = 99; port = 1; seq = 1; payload = "" };
        Fiber.sleep 100_000;
        Alcotest.(check int) "dropped" 1 (Fabric.frames_dropped net))
  in
  ()

let fault_counts ~seed () =
  let duplicated = ref 0 and reordered = ref 0 and delayed = ref 0 in
  let delivered = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed () in
        Fabric.set_faults net ~dup:0.25 ~reorder:0.25 ~delay:0.25
          ~delay_cycles:15_000 ();
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        for i = 1 to 300 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        Fiber.sleep 2_000_000;
        let fs = Fabric.fault_stats net in
        duplicated := fs.Fabric.duplicated;
        reordered := fs.Fabric.reordered;
        delayed := fs.Fabric.delayed;
        delivered := Fabric.frames_delivered net)
  in
  (!duplicated, !reordered, !delayed, !delivered)

let test_fabric_fault_knobs () =
  let dup, reord, del, delivered = fault_counts ~seed:4 () in
  Alcotest.(check bool)
    (Printf.sprintf "duplicated some (%d)" dup)
    true (dup > 0);
  Alcotest.(check bool)
    (Printf.sprintf "reordered some (%d)" reord)
    true (reord > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delayed some (%d)" del)
    true (del > 0);
  (* duplication adds deliveries on top of the 300 originals *)
  Alcotest.(check int) "delivered = originals + duplicates"
    (300 + dup) delivered;
  let again = fault_counts ~seed:4 () in
  Alcotest.(check bool) "same seed, same fault stream" true
    (again = (dup, reord, del, delivered))

let test_fabric_set_faults_mid_run () =
  (* knobs opened then closed mid-run: frames after the window are
     clean, so chaos windows can't bleed into the recovery phase *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:9 () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        Fabric.set_faults net ~dup:0.5 ();
        for i = 1 to 100 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        Fiber.sleep 1_000_000;
        let during = (Fabric.fault_stats net).Fabric.duplicated in
        Alcotest.(check bool) "window duplicated" true (during > 0);
        Fabric.set_faults net ~dup:0.0 ();
        for i = 101 to 200 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        Fiber.sleep 1_000_000;
        Alcotest.(check int) "window closed: no further duplicates" during
          (Fabric.fault_stats net).Fabric.duplicated)
  in
  ()

let test_set_faults_omitted_knobs_keep_value () =
  (* the documented contract: every omitted knob keeps its current
     value, so [set_faults t ()] is a no-op and a window can be closed
     one knob at a time without disturbing the others *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:9 () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        Fabric.set_faults net ~dup:0.9 ();
        Fabric.set_faults net ();  (* no-op *)
        Fabric.set_faults net ~delay:0.0 ();  (* touches only delay *)
        for i = 1 to 50 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        Fiber.sleep 1_000_000;
        let dup = (Fabric.fault_stats net).Fabric.duplicated in
        Alcotest.(check bool)
          (Printf.sprintf "dup=0.9 survived two narrower set_faults (%d)" dup)
          true (dup > 30);
        (* and an explicit 0.0 is what actually closes it *)
        Fabric.set_faults net ~dup:0.0 ();
        for i = 51 to 100 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
        done;
        Fiber.sleep 1_000_000;
        Alcotest.(check int) "explicit 0.0 closes the knob" dup
          (Fabric.fault_stats net).Fabric.duplicated)
  in
  ()

(* ------------------------------------------------------------------ *)
(* Per-link faults                                                     *)

let test_link_partition_is_directed () =
  (* partitioning a->b must not touch a->c or b->a: link faults are
     per directed (src, dst) pair — the asymmetric gray case *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:5 () in
        let a = Fabric.attach net () in
        let b = Fabric.attach net () in
        let c = Fabric.attach net () in
        Fabric.set_link_faults net ~src:0 ~dst:1 ~partition:true ();
        let send nic dst n =
          for i = 1 to n do
            Fabric.transmit nic
              { Fabric.src = 0; dst; port = 1; seq = i; payload = "" }
          done
        in
        send a 1 20;  (* partitioned *)
        send a 2 15;  (* same source, other destination: clean *)
        send b 0 10;  (* reverse direction: clean *)
        ignore c;
        Fiber.sleep 1_000_000;
        let ls = Fabric.link_stats net in
        Alcotest.(check int) "a->b frames partitioned" 20 ls.Fabric.partitioned;
        Alcotest.(check int) "only those dropped" 20
          (Fabric.frames_dropped net);
        Alcotest.(check int) "a->c and b->a delivered" 25
          (Fabric.frames_delivered net);
        (* heal the link: traffic flows again *)
        Fabric.clear_link_faults net ~src:0 ~dst:1;
        send a 1 5;
        Fiber.sleep 1_000_000;
        Alcotest.(check int) "healed link delivers" 30
          (Fabric.frames_delivered net))
  in
  ()

let test_link_delay_slows_one_link () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed:6 () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        Fabric.set_link_faults net ~src:0 ~dst:1 ~delay:0.99
          ~delay_cycles:50_000 ();
        let t0 = Fiber.now () in
        for i = 1 to 10 do
          Fabric.transmit a
            { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "x" }
        done;
        for _ = 1 to 10 do
          ignore (Chan.recv (Fabric.rx b))
        done;
        Alcotest.(check bool) "latency + link delay applied" true
          (Fiber.now () - t0 >= 55_000);
        let delayed = (Fabric.link_stats net).Fabric.link_delayed in
        Alcotest.(check bool)
          (Printf.sprintf "most frames link-delayed (%d)" delayed)
          true (delayed >= 5))
  in
  ()

let link_window_counts ~seed () =
  (* a per-link loss window opened then closed mid-run; returns every
     counter the window can move *)
  let out = ref (0, 0, 0) in
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~latency:5_000 ~seed () in
        let a = Fabric.attach net () and b = Fabric.attach net () in
        ignore b;
        let send n =
          for i = 1 to n do
            Fabric.transmit a
              { Fabric.src = 0; dst = 1; port = 1; seq = i; payload = "" }
          done
        in
        Fabric.set_link_faults net ~src:0 ~dst:1 ~loss:0.5 ();
        send 200;
        Fiber.sleep 1_000_000;
        let during = (Fabric.link_stats net).Fabric.link_dropped in
        (* close the window: omitted knobs keep their values, an
           explicit 0.0 clears the loss *)
        Fabric.set_link_faults net ~src:0 ~dst:1 ~loss:0.0 ();
        send 100;
        Fiber.sleep 1_000_000;
        out :=
          ( during,
            (Fabric.link_stats net).Fabric.link_dropped,
            Fabric.frames_delivered net ))
  in
  !out

let test_link_window_open_close_deterministic () =
  let during, after_close, delivered = link_window_counts ~seed:13 () in
  Alcotest.(check bool)
    (Printf.sprintf "window dropped about half (%d)" during)
    true
    (during > 60 && during < 140);
  Alcotest.(check int) "window closed: no further link drops" during
    after_close;
  Alcotest.(check int) "everything outside the window delivered"
    (300 - during) delivered;
  (* mid-run window open/close is deterministic: same seed, same counts *)
  Alcotest.(check bool) "same seed, same window effects" true
    (link_window_counts ~seed:13 () = (during, after_close, delivered))

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let test_stack_port_demux () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let a = Stack.create net (Fabric.attach net ()) in
        let b = Stack.create net (Fabric.attach net ()) in
        let p5 = Stack.listen b ~port:5 in
        let p6 = Stack.listen b ~port:6 in
        Stack.send a ~dst:(Stack.addr b) ~port:6 "six";
        Stack.send a ~dst:(Stack.addr b) ~port:5 "five";
        let f5 = Chan.recv p5 and f6 = Chan.recv p6 in
        Alcotest.(check string) "port 5" "five" f5.Fabric.payload;
        Alcotest.(check string) "port 6" "six" f6.Fabric.payload)
  in
  ()

let test_stack_duplicate_listen_rejected () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let a = Stack.create net (Fabric.attach net ()) in
        ignore (Stack.listen a ~port:7);
        match Stack.listen a ~port:7 with
        | _ -> Alcotest.fail "duplicate listen accepted"
        | exception Invalid_argument _ -> ())
  in
  ()

let test_reliable_call_clean_network () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let client = Stack.create net (Fabric.attach net ()) in
        let server = Stack.create net (Fabric.attach net ()) in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve server ~port:9 (fun ~src:_ req -> req ^ "!")));
        (match Stack.call client ~dst:(Stack.addr server) ~port:9 "hello" with
        | Some r -> Alcotest.(check string) "reply" "hello!" r
        | None -> Alcotest.fail "call failed on clean network");
        Alcotest.(check int) "no retransmissions" 0
          (Stack.rel_stats client).Stack.retransmissions)
  in
  ()

let test_reliable_call_over_loss () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~loss:0.3 ~seed:11 () in
        let client = Stack.create net (Fabric.attach net ()) in
        let server = Stack.create net (Fabric.attach net ()) in
        let executed = ref 0 in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve server ~port:9 (fun ~src:_ req ->
                   incr executed;
                   "ok:" ^ req)));
        let ok = ref 0 in
        for i = 1 to 50 do
          match
            Stack.call client
              ~dst:(Stack.addr server)
              ~port:9 ~timeout:30_000 ~attempts:10
              (string_of_int i)
          with
          | Some r ->
            Alcotest.(check string) "right reply" ("ok:" ^ string_of_int i) r;
            incr ok
          | None -> ()
        done;
        Alcotest.(check int) "all calls eventually succeed" 50 !ok;
        let st = Stack.rel_stats client in
        Alcotest.(check bool) "loss forced retransmissions" true
          (st.Stack.retransmissions > 0);
        (* exactly-once: despite retries, every request executed once *)
        Alcotest.(check int) "handler executed exactly once per call" 50
          !executed)
  in
  ()

let test_reliable_call_under_duplication () =
  (* the fabric delivers extra copies of request frames; the server's
     (peer, seq) dedup cache must replay the cached reply instead of
     re-executing the handler *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~seed:6 () in
        Fabric.set_faults net ~dup:0.5 ();
        let client = Stack.create net (Fabric.attach net ()) in
        let server = Stack.create net (Fabric.attach net ()) in
        let executed = ref 0 in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve server ~port:9 (fun ~src:_ req ->
                   incr executed;
                   "ok:" ^ req)));
        for i = 1 to 40 do
          match
            Stack.call client
              ~dst:(Stack.addr server)
              ~port:9 (string_of_int i)
          with
          | Some r ->
            Alcotest.(check string) "right reply" ("ok:" ^ string_of_int i) r
          | None -> Alcotest.failf "call %d gave up on a lossless fabric" i
        done;
        Fiber.sleep 1_000_000;
        let st = Stack.rel_stats server in
        Alcotest.(check bool)
          (Printf.sprintf "duplicates suppressed server-side (%d)"
             st.Stack.duplicates_served)
          true
          (st.Stack.duplicates_served > 0);
        Alcotest.(check int) "handler executed exactly once per call" 40
          !executed)
  in
  ()

let test_reliable_call_gives_up () =
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let client = Stack.create net (Fabric.attach net ()) in
        (* no server at all *)
        match
          Stack.call client ~dst:55 ~port:9 ~timeout:5_000 ~attempts:3 "x"
        with
        | None ->
          Alcotest.(check int) "failure counted" 1
            (Stack.rel_stats client).Stack.failures
        | Some _ -> Alcotest.fail "reply from nowhere")
  in
  ()

let test_dedup_cache_bounded () =
  (* the duplicate-suppression cache holds 4096 entries and evicts in
     FIFO insertion order once full, counting what it drops *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create () in
        let client = Stack.create net (Fabric.attach net ()) in
        let server = Stack.create net (Fabric.attach net ()) in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve server ~port:9 (fun ~src:_ req -> req ^ "!")));
        for i = 1 to 4099 do
          match
            Stack.call client ~dst:(Stack.addr server) ~port:9
              (string_of_int i)
          with
          | Some _ -> ()
          | None -> Alcotest.fail "call failed on clean network"
        done;
        Alcotest.(check int) "evictions = distinct keys - capacity" 3
          (Stack.rel_stats server).Stack.dedup_evictions)
  in
  ()

let test_concurrent_calls_not_crossed () =
  (* concurrent callers on one stack must each get their own reply *)
  let (_ : Runstats.t) =
    run (fun () ->
        let net = Fabric.create ~loss:0.2 ~seed:5 () in
        let client = Stack.create net (Fabric.attach net ()) in
        let server = Stack.create net (Fabric.attach net ()) in
        ignore
          (Fiber.spawn ~daemon:true (fun () ->
               Stack.serve server ~port:4 (fun ~src:_ req -> "echo:" ^ req)));
        let fibers =
          List.init 8 (fun i ->
              Fiber.spawn (fun () ->
                  for k = 1 to 10 do
                    let req = Printf.sprintf "%d-%d" i k in
                    match
                      Stack.call client ~dst:(Stack.addr server) ~port:4
                        ~timeout:30_000 ~attempts:10 req
                    with
                    | Some r ->
                      Alcotest.(check string) "own reply" ("echo:" ^ req) r
                    | None -> Alcotest.fail "call failed"
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  ()

let prop_lossless_fabric_delivers_everything =
  QCheck.Test.make ~name:"loss=0 fabric delivers every frame in order"
    ~count:40
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_range 0 4) small_nat))
    (fun sends ->
      let ok = ref true in
      let (_ : Runstats.t) =
        run (fun () ->
            let net = Fabric.create ~latency:500 () in
            let nics = Array.init 5 (fun _ -> Fabric.attach net ()) in
            let sink = Fabric.attach net () in
            List.iteri
              (fun i (src, payload) ->
                Fabric.transmit nics.(src)
                  { Fabric.src = 0; dst = Fabric.addr sink; port = 1;
                    seq = i; payload = string_of_int payload })
              sends;
            (* drain: every frame must arrive, per-sender order kept *)
            let last_seq = Array.make 5 (-1) in
            for _ = 1 to List.length sends do
              let f = Chan.recv (Fabric.rx sink) in
              let src = f.Fabric.src in
              if f.Fabric.seq <= last_seq.(src) then ok := false;
              last_seq.(src) <- f.Fabric.seq
            done;
            if Fabric.frames_dropped net <> 0 then ok := false)
      in
      !ok)

let () =
  Alcotest.run "chorus-net"
    [ ( "fabric",
        [ Alcotest.test_case "in-order delivery" `Quick
            test_fabric_delivers_in_order;
          Alcotest.test_case "wire latency" `Quick test_fabric_latency;
          Alcotest.test_case "loss" `Quick test_fabric_loses_frames;
          Alcotest.test_case "unknown dst" `Quick
            test_fabric_unknown_dst_dropped;
          Alcotest.test_case "loss accounting" `Quick
            test_fabric_loss_accounting;
          Alcotest.test_case "zero-loss invariant" `Quick
            test_fabric_zero_loss_invariant;
          Alcotest.test_case "loss deterministic" `Quick
            test_fabric_loss_deterministic;
          Alcotest.test_case "dup/reorder/delay knobs" `Quick
            test_fabric_fault_knobs;
          Alcotest.test_case "set_faults mid-run" `Quick
            test_fabric_set_faults_mid_run;
          Alcotest.test_case "set_faults keeps omitted knobs" `Quick
            test_set_faults_omitted_knobs_keep_value;
          Alcotest.test_case "link partition is directed" `Quick
            test_link_partition_is_directed;
          Alcotest.test_case "link delay slows one link" `Quick
            test_link_delay_slows_one_link;
          Alcotest.test_case "link window open/close deterministic" `Quick
            test_link_window_open_close_deterministic;
          QCheck_alcotest.to_alcotest
            prop_lossless_fabric_delivers_everything ] );
      ( "stack",
        [ Alcotest.test_case "port demux" `Quick test_stack_port_demux;
          Alcotest.test_case "duplicate listen" `Quick
            test_stack_duplicate_listen_rejected;
          Alcotest.test_case "call clean" `Quick
            test_reliable_call_clean_network;
          Alcotest.test_case "call over 30% loss" `Quick
            test_reliable_call_over_loss;
          Alcotest.test_case "call under duplication" `Quick
            test_reliable_call_under_duplication;
          Alcotest.test_case "dedup cache bounded" `Quick
            test_dedup_cache_bounded;
          Alcotest.test_case "call gives up" `Quick
            test_reliable_call_gives_up;
          Alcotest.test_case "concurrent calls" `Quick
            test_concurrent_calls_not_crossed ] ) ]
