(* Unit tests for the unified service plane (lib/svc): endpoint
   round-trips, the three overload policies, queue-depth accounting,
   metrics wiring, and per-policy determinism. *)

module Machine = Chorus_machine.Machine
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Metrics = Chorus_obs.Metrics
module Svc = Chorus_svc.Svc

let cfg ?(cores = 4) ?(seed = 42) () =
  Runtime.config ~seed (Machine.mesh ~cores)

let run ?cores ?seed main = Runtime.run (cfg ?cores ?seed ()) main

let run_result ?cores ?seed main =
  Runtime.run_result (cfg ?cores ?seed ()) main

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let ep = Svc.create ~subsystem:"test" ~label:"double" () in
        ignore (Svc.start ep (fun x -> x * 2));
        Alcotest.(check int) "call round-trips" 42 (Svc.call ep 21);
        Alcotest.(check int) "served counted" 1 (Svc.served ep))
  in
  ()

(* The reference for the default endpoint: the paper's
   "c <- (a, c1); r <- c1" written out by hand, an unbounded inbox and
   a fresh [Chan.buffered 1] reply per call.  One client on core 0
   makes [pair_calls] calls to a server on core 1; odd calls wait under
   a choice with a timeout arm, the shape E10's clients use, and every
   seventh request blocks the server long enough for that arm to
   fire. *)
let pair_calls = 40

let pair_timeout = 20_000

let pair_handler x =
  if x mod 7 = 3 then Fiber.sleep (3 * pair_timeout);
  Fiber.work 500;
  x * 3

(* [setup ()] starts the server and returns the plain and the timed
   client call. *)
let run_pair setup =
  run_result (fun () ->
      let call, call_timed = setup () in
      let out = ref [] in
      for i = 0 to pair_calls - 1 do
        let v = if i mod 2 = 0 then call i else call_timed i in
        out := v :: !out
      done;
      List.rev !out)

let via_bare_pair () =
  run_pair (fun () ->
      let c = Chan.unbounded ~label:"pair" () in
      ignore
        (Fiber.spawn ~on:1 ~label:"pair" ~daemon:true (fun () ->
             let rec loop () =
               let a, c1 = Chan.recv c in
               Chan.send c1 (pair_handler a);
               loop ()
             in
             loop ()));
      let send a =
        let c1 = Chan.buffered 1 in
        Chan.send c (a, c1);
        c1
      in
      ( (fun a -> Chan.recv (send a)),
        fun a ->
          Chan.choose
            [ Chan.recv_case (send a) Fun.id;
              Chan.after pair_timeout (fun () -> -1) ] ))

let via_svc () =
  run_pair (fun () ->
      let ep = Svc.create ~subsystem:"test" ~label:"pair" () in
      ignore (Svc.start ~on:1 ep pair_handler);
      ( Svc.call ep,
        fun a ->
          Chan.choose
            [ Chan.recv_case (Svc.call_async ep a) (function
                | `Ok v -> v
                | `Busy -> -2);
              Chan.after pair_timeout (fun () -> -1) ] ))

let test_default_matches_bare_pair () =
  let bare, bare_stats = via_bare_pair () in
  let svc, svc_stats = via_svc () in
  Alcotest.(check (list int)) "same replies" bare svc;
  Alcotest.(check bool) "the timeout arm fired" true (List.mem (-1) svc);
  Alcotest.(check bool) "replies arrived" true (List.mem 3 svc);
  Alcotest.check
    (Alcotest.testable Runstats.pp ( = ))
    "same run statistics" bare_stats svc_stats

let test_validate () =
  Alcotest.check_raises "reject needs a capacity"
    (Invalid_argument "Svc: `Reject/`Shed_oldest need a capacity >= 1")
    (fun () ->
      ignore
        (run (fun () ->
             ignore
               (Svc.create
                  ~config:(Svc.config ~policy:`Reject ())
                  ~subsystem:"test" ~label:"bad" ()))))

let test_reject_busy_without_handler () =
  let (_ : Runstats.t) =
    run (fun () ->
        let ran = ref 0 in
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity:1 ~policy:`Reject ())
            ~subsystem:"test" ~label:"rejector" ()
        in
        (* no server yet: the first request fills the only slot *)
        let r1 = Svc.call_async ep 1 in
        (match Svc.call_result ep 2 with
        | `Busy -> ()
        | `Ok _ -> Alcotest.fail "second request should be rejected");
        Alcotest.(check int) "rejection counted" 1 (Svc.rejected ep);
        Alcotest.(check int) "queue still holds one" 1 (Svc.depth ep);
        ignore (Svc.start ep (fun v -> incr ran; v));
        Alcotest.(check int) "admitted request served" 1 (Svc.await r1);
        Alcotest.(check int) "handler ran only for the admitted one" 1 !ran)
  in
  ()

let test_shed_drops_exactly_the_stalest () =
  let (_ : Runstats.t) =
    run (fun () ->
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity:2 ~policy:`Shed_oldest ())
            ~subsystem:"test" ~label:"shedder" ()
        in
        let r1 = Svc.call_async ep 1 in
        let r2 = Svc.call_async ep 2 in
        (* queue full: this admission evicts request 1, the stalest *)
        let r3 = Svc.call_async ep 3 in
        Alcotest.(check int) "one shed" 1 (Svc.shed ep);
        Alcotest.(check int) "none rejected" 0 (Svc.rejected ep);
        ignore (Svc.start ep (fun v -> v));
        (match Svc.await_result r1 with
        | `Busy -> ()
        | `Ok _ -> Alcotest.fail "stalest request must be the one shed");
        Alcotest.(check int) "second survived" 2 (Svc.await r2);
        Alcotest.(check int) "newest survived" 3 (Svc.await r3))
  in
  ()

let test_block_backpressures () =
  let (_ : Runstats.t) =
    run (fun () ->
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity:1 ~policy:`Block ())
            ~subsystem:"test" ~label:"blocker" ()
        in
        let blocked_for = ref 0 in
        let producer =
          Fiber.spawn (fun () ->
              ignore (Svc.call_async ep 1);
              let t0 = Fiber.now () in
              ignore (Svc.call_async ep 2);
              blocked_for := Fiber.now () - t0)
        in
        Fiber.sleep 50_000;
        ignore (Svc.start ep (fun v -> v));
        ignore (Fiber.join producer);
        Alcotest.(check bool)
          "second offer blocked until the server drained a slot" true
          (!blocked_for >= 40_000))
  in
  ()

let test_hwm_sees_bursts_between_receives () =
  (* the high-watermark is sampled on enqueue, so a burst that arrives
     while the server is busy is visible even though the queue is
     empty again by the time anyone looks *)
  let (_ : Runstats.t) =
    run (fun () ->
        let ep = Svc.create ~subsystem:"test" ~label:"bursty" () in
        let r1 = Svc.call_async ep 1 in
        let r2 = Svc.call_async ep 2 in
        let r3 = Svc.call_async ep 3 in
        Alcotest.(check int) "depth counts the burst" 3 (Svc.depth ep);
        Alcotest.(check int) "hwm caught the burst" 3 (Svc.hwm ep);
        ignore (Svc.start ep (fun v -> v));
        ignore (Svc.await r1);
        ignore (Svc.await r2);
        ignore (Svc.await r3);
        Alcotest.(check int) "queue drained" 0 (Svc.depth ep);
        Alcotest.(check int) "hwm survives the drain" 3 (Svc.hwm ep))
  in
  ()

let test_metrics_registered () =
  let reg = Metrics.create () in
  Metrics.install reg;
  let (_ : Runstats.t) =
    run (fun () ->
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity:2 ~policy:`Shed_oldest ())
            ~subsystem:"svctest" ~label:"metered" ()
        in
        let r1 = Svc.call_async ep 1 in
        let r2 = Svc.call_async ep 2 in
        let r3 = Svc.call_async ep 3 in
        ignore (Svc.start ep (fun v -> v));
        ignore (Svc.await_result r1);
        ignore (Svc.await r2);
        ignore (Svc.await r3))
  in
  Metrics.uninstall ();
  let snap = Metrics.snapshot reg in
  let get name =
    match List.assoc_opt ("svctest", name) snap with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "metric %s not registered" name)
  in
  (match get "queue_hwm" with
  | Metrics.Gauge { peak; _ } ->
      Alcotest.(check int) "queue_hwm peak" 2 peak
  | _ -> Alcotest.fail "queue_hwm is not a gauge");
  (match get "queue_depth" with
  | Metrics.Gauge { last; _ } ->
      Alcotest.(check int) "queue_depth drained" 0 last
  | _ -> Alcotest.fail "queue_depth is not a gauge");
  (match get "service_time" with
  | Metrics.Histo { count; _ } ->
      Alcotest.(check int) "service_time samples" 2 count
  | _ -> Alcotest.fail "service_time is not a histogram");
  (match get "shed" with
  | Metrics.Counter n -> Alcotest.(check int) "shed counter" 1 n
  | _ -> Alcotest.fail "shed is not a counter");
  match get "rejected" with
  | Metrics.Counter n -> Alcotest.(check int) "rejected counter" 0 n
  | _ -> Alcotest.fail "rejected is not a counter"

(* A small open-loop overload scenario; byte-identical replay under
   the same seed is the whole point of keeping choose (and its RNG
   draw) out of the service plane. *)
let overload_scenario ~policy ~seed =
  let (completed, busy), stats =
    run_result ~seed (fun () ->
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity:2 ~policy ())
            ~subsystem:"test" ~label:"det" ()
        in
        ignore (Svc.start ep (fun v -> Fiber.work 10_000; v));
        let completed = ref 0 and busy = ref 0 in
        let finished = Chan.unbounded () in
        for c = 0 to 1 do
          ignore
            (Fiber.spawn ~daemon:true (fun () ->
                 Fiber.sleep (c * 1_000);
                 for i = 0 to 9 do
                   ignore
                     (Fiber.spawn ~daemon:true (fun () ->
                          (match Svc.call_result ep i with
                          | `Ok _ -> incr completed
                          | `Busy -> incr busy);
                          Chan.send finished ()));
                   Fiber.sleep 4_000
                 done))
        done;
        for _ = 1 to 20 do
          ignore (Chan.recv finished)
        done;
        (!completed, !busy))
  in
  (completed, busy, stats.Runstats.makespan)

let test_deterministic_per_policy () =
  List.iter
    (fun policy ->
      let a = overload_scenario ~policy ~seed:7 in
      let b = overload_scenario ~policy ~seed:7 in
      let pp (c, bz, mk) = Printf.sprintf "(%d,%d,%d)" c bz mk in
      Alcotest.(check string)
        "same seed, same counts and makespan" (pp a) (pp b))
    [ `Block; `Reject; `Shed_oldest ]

let () =
  Alcotest.run "chorus-svc"
    [ ( "endpoint",
        [ Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "config validation" `Quick test_validate;
          Alcotest.test_case "default endpoint matches bare channel pair"
            `Quick test_default_matches_bare_pair ] );
      ( "overload",
        [ Alcotest.test_case "reject answers busy without the handler"
            `Quick test_reject_busy_without_handler;
          Alcotest.test_case "shed drops exactly the stalest" `Quick
            test_shed_drops_exactly_the_stalest;
          Alcotest.test_case "block backpressures" `Quick
            test_block_backpressures ] );
      ( "accounting",
        [ Alcotest.test_case "hwm sees bursts between receives" `Quick
            test_hwm_sees_bursts_between_receives;
          Alcotest.test_case "uniform metrics registered" `Quick
            test_metrics_registered ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same run, per policy" `Quick
            test_deterministic_per_policy ] ) ]
