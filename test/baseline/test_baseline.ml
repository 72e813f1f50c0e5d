(* Tests for the shared-memory baseline: Shm cells, locks, rwlocks,
   traps, signals, FlexSC. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Shm = Chorus_baseline.Shm
module Lock = Chorus_baseline.Lock
module Rwlock = Chorus_baseline.Rwlock
module Trap = Chorus_baseline.Trap
module Signals = Chorus_baseline.Signals
module Flexsc = Chorus_baseline.Flexsc
module Machipc = Chorus_baseline.Machipc
module Svc = Chorus_svc.Svc

let run ?(cores = 8) ?(policy = Policy.round_robin ()) main =
  Runtime.run (Runtime.config ~policy (Machine.mesh ~cores)) main

(* ------------------------------------------------------------------ *)
(* Shm                                                                 *)

let test_shm_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let cell = Shm.create 10 in
        Alcotest.(check int) "read" 10 (Shm.read cell);
        Shm.write cell 20;
        Alcotest.(check int) "after write" 20 (Shm.read cell);
        let old = Shm.update cell (fun x -> x + 1) in
        Alcotest.(check int) "update returns old" 20 old;
        Alcotest.(check int) "updated" 21 (Shm.peek cell))
  in
  ()

let test_shm_remote_access_costs () =
  (* two fibers on distant cores bouncing a cell is slower than one
     fiber hammering it locally *)
  let bounce same_core =
    run ~cores:64 (fun () ->
        let cell = Shm.create 0 in
        let c1 = 0 and c2 = if same_core then 0 else 63 in
        let a =
          Fiber.spawn ~on:c1 (fun () ->
              for _ = 1 to 200 do
                ignore (Shm.update cell (fun x -> x + 1));
                Fiber.yield ()
              done)
        in
        let b =
          Fiber.spawn ~on:c2 (fun () ->
              for _ = 1 to 200 do
                ignore (Shm.update cell (fun x -> x + 1));
                Fiber.yield ()
              done)
        in
        ignore (Fiber.join a);
        ignore (Fiber.join b))
  in
  let local = bounce true and remote = bounce false in
  Alcotest.(check bool) "line bouncing costs" true
    (remote.Runstats.makespan > local.Runstats.makespan)

(* ------------------------------------------------------------------ *)
(* Lock                                                                *)

let test_lock_mutual_exclusion () =
  let (_ : Runstats.t) =
    run (fun () ->
        let l = Lock.create () in
        let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
        let fibers =
          List.init 16 (fun _ ->
              Fiber.spawn (fun () ->
                  for _ = 1 to 25 do
                    Lock.with_lock l (fun () ->
                        incr inside;
                        if !inside > !max_inside then max_inside := !inside;
                        (* a suspension inside the critical section must
                           not admit anyone else *)
                        Fiber.yield ();
                        incr total;
                        decr inside)
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers;
        Alcotest.(check int) "never two holders" 1 !max_inside;
        Alcotest.(check int) "all sections ran" 400 !total;
        Alcotest.(check int) "acquisitions counted" 400 (Lock.acquisitions l);
        Alcotest.(check bool) "some contention" true (Lock.contended l > 0))
  in
  ()

let test_lock_fifo_handoff () =
  let (_ : Runstats.t) =
    run (fun () ->
        let l = Lock.create () in
        let order = ref [] in
        Lock.acquire l;
        let fibers =
          List.init 4 (fun i ->
              let f =
                Fiber.spawn (fun () ->
                    Lock.acquire l;
                    order := i :: !order;
                    Lock.release l)
              in
              (* serialize arrival order *)
              Fiber.sleep 1_000;
              f)
        in
        Fiber.sleep 10_000;
        Lock.release l;
        List.iter (fun f -> ignore (Fiber.join f)) fibers;
        Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3 ]
          (List.rev !order))
  in
  ()

let test_lock_release_by_non_holder_rejected () =
  let (_ : Runstats.t) =
    run (fun () ->
        let l = Lock.create ~label:"guard" () in
        Lock.acquire l;
        let f =
          Fiber.spawn (fun () ->
              match Lock.release l with
              | () -> Alcotest.fail "non-holder released"
              | exception Invalid_argument _ -> ())
        in
        ignore (Fiber.join f);
        Lock.release l)
  in
  ()

let test_lock_skips_killed_waiter () =
  let (_ : Runstats.t) =
    run (fun () ->
        let l = Lock.create () in
        Lock.acquire l;
        let got = ref false in
        let victim = Fiber.spawn (fun () -> Lock.with_lock l (fun () -> ())) in
        Fiber.sleep 1_000;
        let healthy =
          Fiber.spawn (fun () -> Lock.with_lock l (fun () -> got := true))
        in
        Fiber.sleep 1_000;
        Fiber.kill victim;
        Fiber.sleep 1_000;
        Lock.release l;
        ignore (Fiber.join healthy);
        Alcotest.(check bool) "healthy waiter got the lock" true !got)
  in
  ()

let test_lock_contention_scales_cost () =
  (* the contention penalty is the time spent parked waiting for the
     convoy: mean wait per acquisition must grow with waiters *)
  let go waiters =
    let wait = ref 0.0 in
    let (_ : Runstats.t) =
      run ~cores:64 (fun () ->
          let l = Lock.create () in
          let fibers =
            List.init waiters (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to 20 do
                      Lock.with_lock l (fun () -> Fiber.work 200)
                    done))
          in
          List.iter (fun f -> ignore (Fiber.join f)) fibers;
          wait :=
            float_of_int (Lock.wait_cycles l)
            /. float_of_int (Lock.acquisitions l))
    in
    !wait
  in
  let few = go 2 and many = go 32 in
  Alcotest.(check bool)
    (Printf.sprintf "contention penalty (%.0f vs %.0f)" many few)
    true (many > 2.0 *. few)

(* ------------------------------------------------------------------ *)
(* Rwlock                                                              *)

let test_rwlock_readers_parallel_writers_exclusive () =
  let (_ : Runstats.t) =
    run (fun () ->
        let rw = Rwlock.create () in
        let readers_in = ref 0 and max_readers = ref 0 in
        let writer_in = ref false in
        let violations = ref 0 in
        let reader () =
          Rwlock.with_read rw (fun () ->
              incr readers_in;
              if !writer_in then incr violations;
              if !readers_in > !max_readers then max_readers := !readers_in;
              Fiber.yield ();
              decr readers_in)
        in
        let writer () =
          Rwlock.with_write rw (fun () ->
              if !readers_in > 0 || !writer_in then incr violations;
              writer_in := true;
              Fiber.yield ();
              writer_in := false)
        in
        let fibers =
          List.init 24 (fun i ->
              Fiber.spawn (fun () ->
                  for _ = 1 to 10 do
                    if i mod 4 = 0 then writer () else reader ()
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers;
        Alcotest.(check int) "no rw violations" 0 !violations;
        Alcotest.(check bool) "readers overlapped" true (!max_readers > 1))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Trap, Signals, Flexsc                                               *)

let test_trap_charges () =
  let bare = run (fun () -> Fiber.work 1_000) in
  let trapped =
    run (fun () ->
        for _ = 1 to 10 do
          Trap.syscall (fun () -> Fiber.work 100)
        done)
  in
  (* 10 x (2 x 150) = 3000 extra cycles at least *)
  Alcotest.(check bool) "mode switches cost" true
    (trapped.Runstats.makespan > bare.Runstats.makespan + 2_500)

let test_signals_interrupt_restart () =
  let (_ : Runstats.t) =
    run (fun () ->
        let p = Signals.create () in
        let handled = ref 0 in
        let worker =
          Fiber.spawn (fun () ->
              Signals.interruptible_syscall p ~work:10_000)
        in
        Fiber.sleep 2_000;
        Signals.deliver p ~handler:(fun () -> incr handled);
        ignore (Fiber.join worker);
        Alcotest.(check int) "handler ran" 1 !handled;
        Alcotest.(check bool) "progress was wasted" true
          (Signals.wasted_cycles p > 0);
        Alcotest.(check int) "delivered" 1 (Signals.delivered p))
  in
  ()

let test_signals_wait () =
  let (_ : Runstats.t) =
    run (fun () ->
        let p = Signals.create () in
        let woke = ref false in
        let sleeper =
          Fiber.spawn (fun () ->
              Signals.wait_signal p;
              woke := true)
        in
        Fiber.sleep 5_000;
        Alcotest.(check bool) "still parked" false !woke;
        Signals.deliver p ~handler:(fun () -> ());
        ignore (Fiber.join sleeper);
        Alcotest.(check bool) "woken by signal" true !woke)
  in
  ()

let test_flexsc_batches () =
  let (_ : Runstats.t) =
    run (fun () ->
        let page = Flexsc.create ~batch:4 () in
        let ran = ref 0 in
        for _ = 1 to 10 do
          Flexsc.submit page (fun () -> incr ran)
        done;
        (* 8 ran via two auto-flushes; 2 pending *)
        Alcotest.(check int) "auto flushes" 2 (Flexsc.traps page);
        Alcotest.(check int) "batched so far" 8 !ran;
        Flexsc.flush page;
        Alcotest.(check int) "drained" 10 !ran;
        Alcotest.(check int) "one more trap" 3 (Flexsc.traps page);
        Flexsc.flush page;
        Alcotest.(check int) "empty flush is free" 3 (Flexsc.traps page))
  in
  ()

let test_flexsc_cheaper_than_traps () =
  let traps =
    run (fun () ->
        for _ = 1 to 64 do
          Trap.syscall (fun () -> Fiber.work 50)
        done)
  in
  let flex =
    run (fun () ->
        let page = Flexsc.create ~batch:32 () in
        for _ = 1 to 64 do
          Flexsc.submit page (fun () -> Fiber.work 50)
        done;
        Flexsc.flush page)
  in
  Alcotest.(check bool) "batching wins" true
    (flex.Runstats.makespan < traps.Runstats.makespan)

let test_mach_port_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let port = Machipc.Port.create () in
        let _srv =
          Fiber.spawn ~daemon:true (fun () ->
              let rec loop () =
                let x, reply = Machipc.Port.recv port in
                Machipc.Port.send reply (x * 10);
                loop ()
              in
              loop ())
        in
        Alcotest.(check int) "rpc" 70 (Machipc.Port.rpc port 7))
  in
  ()

let test_l4_sync_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let gate = Machipc.Sync.create () in
        let _srv =
          Fiber.spawn ~daemon:true (fun () ->
              Machipc.Sync.serve gate (fun x -> x - 1))
        in
        Alcotest.(check int) "call" 41 (Machipc.Sync.call gate 42))
  in
  ()

let test_ipc_weight_ordering () =
  (* channels < L4 < Mach must hold for any sane cost vector *)
  let time f =
    let s = run f in
    s.Runstats.makespan
  in
  let n = 200 in
  let chan =
    time (fun () ->
        let ep = Svc.create ~subsystem:"test" ~label:"null-rpc" () in
        let _s =
          Fiber.spawn ~daemon:true (fun () -> Svc.serve ep (fun x -> x))
        in
        for i = 1 to n do
          ignore (Svc.call ep i)
        done)
  in
  let l4 =
    time (fun () ->
        let g = Machipc.Sync.create () in
        let _s =
          Fiber.spawn ~daemon:true (fun () -> Machipc.Sync.serve g (fun x -> x))
        in
        for i = 1 to n do
          ignore (Machipc.Sync.call g i)
        done)
  in
  let mach =
    time (fun () ->
        let p = Machipc.Port.create () in
        let _s =
          Fiber.spawn ~daemon:true (fun () ->
              let rec loop () =
                let x, reply = Machipc.Port.recv p in
                Machipc.Port.send reply x;
                loop ()
              in
              loop ())
        in
        for i = 1 to n do
          ignore (Machipc.Port.rpc p i)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "chan(%d) < l4(%d)" chan l4)
    true (chan < l4);
  Alcotest.(check bool)
    (Printf.sprintf "l4(%d) < mach(%d)" l4 mach)
    true (l4 < mach)

let () =
  Alcotest.run "chorus-baseline"
    [ ( "shm",
        [ Alcotest.test_case "roundtrip" `Quick test_shm_roundtrip;
          Alcotest.test_case "remote access costs" `Quick
            test_shm_remote_access_costs ] );
      ( "lock",
        [ Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion;
          Alcotest.test_case "fifo handoff" `Quick test_lock_fifo_handoff;
          Alcotest.test_case "non-holder rejected" `Quick
            test_lock_release_by_non_holder_rejected;
          Alcotest.test_case "skips killed waiter" `Quick
            test_lock_skips_killed_waiter;
          Alcotest.test_case "contention cost" `Quick
            test_lock_contention_scales_cost ] );
      ( "rwlock",
        [ Alcotest.test_case "readers parallel, writers exclusive" `Quick
            test_rwlock_readers_parallel_writers_exclusive ] );
      ( "trap-signals-flexsc",
        [ Alcotest.test_case "trap charges" `Quick test_trap_charges;
          Alcotest.test_case "signal interrupt+restart" `Quick
            test_signals_interrupt_restart;
          Alcotest.test_case "sigsuspend" `Quick test_signals_wait;
          Alcotest.test_case "flexsc batches" `Quick test_flexsc_batches;
          Alcotest.test_case "flexsc cheaper" `Quick
            test_flexsc_cheaper_than_traps ] );
      ( "ipc-weights",
        [ Alcotest.test_case "mach port roundtrip" `Quick
            test_mach_port_roundtrip;
          Alcotest.test_case "l4 sync roundtrip" `Quick
            test_l4_sync_roundtrip;
          Alcotest.test_case "weight ordering" `Quick
            test_ipc_weight_ordering ] ) ]
