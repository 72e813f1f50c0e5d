(* Tests for the domain pool and the domain-safe engine contexts:
   order-preserving deterministic merge at any domain count, failure
   propagation, N-domain chaos campaigns byte-identical to sequential,
   and two engines in one process — stepped interleaved and fully
   concurrent on separate domains — with no Inspect/metrics
   cross-contamination. *)

module Pool = Chorus_par.Pool
module Chaos = Chorus_chaos.Chaos
module Engine = Chorus.Engine
module Machine = Chorus_machine.Machine
module Metrics = Chorus_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)

let test_pool_order () =
  let expect = List.init 20 (fun i -> i * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order at %d domains" domains)
        expect
        (Pool.run ~domains ~tasks:20 (fun i -> i * i)))
    [ 1; 2; 4 ]

let test_pool_edges () =
  Alcotest.(check (list int)) "zero tasks" [] (Pool.run ~domains:4 ~tasks:0 Fun.id);
  Alcotest.(check (list int))
    "more domains than tasks" [ 0; 1 ]
    (Pool.run ~domains:8 ~tasks:2 Fun.id);
  Alcotest.(check (list string))
    "map" [ "a!"; "b!" ]
    (Pool.map ~domains:2 [ "a"; "b" ] (fun s -> s ^ "!"));
  Alcotest.check_raises "domains 0 rejected"
    (Invalid_argument "Pool.run: domains must be >= 1") (fun () ->
      ignore (Pool.run ~domains:0 ~tasks:1 Fun.id))

let test_pool_failure () =
  (* only task 3 ever fails, so the winning failure index is fixed *)
  List.iter
    (fun domains ->
      match Pool.run ~domains ~tasks:8 (fun i -> if i = 3 then failwith "boom" else i) with
      | _ -> Alcotest.failf "expected Task_failed at %d domains" domains
      | exception Pool.Task_failed (3, Failure msg) when String.equal msg "boom"
        -> ()
      | exception e ->
        Alcotest.failf "wrong exception at %d domains: %s" domains
          (Printexc.to_string e))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* N-domain campaign determinism                                       *)

let report_sig (r : Chaos.report) =
  ( r.Chaos.runs,
    r.Chaos.total_ops,
    r.Chaos.faults_injected,
    r.Chaos.kinds,
    List.length r.Chaos.violations,
    r.Chaos.campaign_digest )

let test_campaign_domains_identical () =
  (* disk runs arm crash points from inside their runs and kv runs
     don't: with a shared global crash point, concurrent shards would
     contaminate each other; with per-run contexts the merged report
     must be byte-identical at every width *)
  let rep domains =
    Chaos.campaign ~domains ~seed:5 [ (Chaos.Disk, 6); (Chaos.Kv, 2) ]
  in
  let base = report_sig (rep 1) in
  List.iter
    (fun domains ->
      if report_sig (rep domains) <> base then
        Alcotest.failf "campaign diverged at %d domains" domains)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Two engines in one process                                          *)

let test_two_engines_stepped () =
  (* interleave two started engines from the same driver; each must
     keep its own Inspect provider registry *)
  let mk tag =
    let eng = Engine.create (Engine.default_config (Machine.mesh ~cores:2)) in
    Engine.start eng (fun () ->
        Chorus.Inspect.register ~name:tag (fun () ->
            Chorus.Inspect.String tag);
        Chorus.Fiber.sleep 10_000;
        Chorus.Inspect.register ~name:(tag ^ "/late") (fun () ->
            Chorus.Inspect.Int 1));
    eng
  in
  let a = mk "a" in
  let b = mk "b" in
  let names eng =
    List.map fst (Chorus.Inspect.snapshot_in (Engine.ctx eng))
  in
  Engine.run_until a 5_000;
  Alcotest.(check (list string)) "a early" [ "a" ] (names a);
  Alcotest.(check (list string)) "b unstepped sees nothing" [] (names b);
  Engine.run_until b 20_000;
  Alcotest.(check (list string)) "b complete" [ "b"; "b/late" ] (names b);
  Alcotest.(check (list string)) "a unaffected by b" [ "a" ] (names a);
  Engine.run_until a 20_000;
  Alcotest.(check (list string)) "a complete" [ "a"; "a/late" ] (names a);
  Engine.finish a;
  Engine.finish b

let test_two_engines_concurrent () =
  (* the same chaos runs, solo then concurrently on two domains, must
     produce the same digests — engines share no mutable state *)
  let seed = 7 in
  let digest i =
    (Chaos.run_one Chaos.Disk (Chaos.gen Chaos.Disk ~seed ~index:i))
      .Chaos.digest
  in
  let solo1 = digest 1 in
  let solo2 = digest 2 in
  let d1 = Domain.spawn (fun () -> digest 1) in
  let d2 = Domain.spawn (fun () -> digest 2) in
  let c1 = Domain.join d1 in
  let c2 = Domain.join d2 in
  Alcotest.(check string) "digest 1 concurrent = solo" solo1 c1;
  Alcotest.(check string) "digest 2 concurrent = solo" solo2 c2;
  Alcotest.(check bool) "distinct schedules distinct digests" true
    (not (String.equal solo1 solo2))

let test_metrics_domain_isolation () =
  (* each domain installs its own registry before its run; counts must
     not bleed across domains *)
  let count n =
    let reg = Metrics.create () in
    Metrics.install reg;
    Fun.protect ~finally:Metrics.uninstall @@ fun () ->
    let (_ : Chorus.Runstats.t) =
      Chorus.Runtime.run
        (Chorus.Runtime.config ~seed:n (Machine.mesh ~cores:2))
        (fun () ->
          let c = Metrics.counter ~subsystem:"iso" "count" in
          for _ = 1 to n do
            Metrics.incr c
          done)
    in
    match Metrics.snapshot reg with
    | [ ((_, _), Metrics.Counter v) ] -> v
    | _ -> -1
  in
  let da = Domain.spawn (fun () -> count 3) in
  let db = Domain.spawn (fun () -> count 5) in
  let va = Domain.join da in
  let vb = Domain.join db in
  Alcotest.(check int) "domain a count" 3 va;
  Alcotest.(check int) "domain b count" 5 vb

let () =
  Alcotest.run "chorus-par"
    [ ( "pool",
        [ Alcotest.test_case "order-preserving merge" `Quick test_pool_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edges;
          Alcotest.test_case "failure propagation" `Quick test_pool_failure
        ] );
      ( "campaign",
        [ Alcotest.test_case "byte-identical at 1/2/4 domains" `Quick
            test_campaign_domains_identical
        ] );
      ( "engines",
        [ Alcotest.test_case "two stepped engines interleaved" `Quick
            test_two_engines_stepped;
          Alcotest.test_case "two concurrent engines" `Quick
            test_two_engines_concurrent;
          Alcotest.test_case "metrics isolated per domain" `Quick
            test_metrics_domain_isolation
        ] )
    ]
