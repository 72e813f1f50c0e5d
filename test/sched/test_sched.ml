(* Tests for placement policies: both the pure policy logic (via a
   synthetic view) and their end-to-end effect inside the runtime. *)

module Policy = Chorus_sched.Policy
module Rng = Chorus_util.Rng
module Machine = Chorus_machine.Machine
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber

let view ?(cores = 8) ?(loads = [||]) () =
  let loads = if Array.length loads = 0 then Array.make cores 0 else loads in
  { Policy.cores;
    load = (fun c -> loads.(c));
    hops = (fun a b -> abs (a - b));
    rng = Rng.make 5 }

let test_parent_stays () =
  let v = view () in
  for parent = 0 to 7 do
    Alcotest.(check int) "stays home" parent
      (Policy.place Policy.parent v ~parent ~affinity:None)
  done

let test_round_robin_cycles () =
  let p = Policy.round_robin () in
  let v = view ~cores:4 () in
  let got = List.init 8 (fun _ -> Policy.place p v ~parent:0 ~affinity:None) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 3; 0; 1; 2; 3 ] got

let test_least_loaded_picks_min () =
  let v = view ~loads:[| 5; 3; 0; 7; 2; 2; 9; 1 |] () in
  Alcotest.(check int) "min load" 2
    (Policy.place Policy.least_loaded v ~parent:0 ~affinity:None)

let test_random_in_range () =
  let v = view ~cores:5 () in
  for _ = 1 to 100 do
    let c = Policy.place Policy.random v ~parent:0 ~affinity:None in
    Alcotest.(check bool) "range" true (c >= 0 && c < 5)
  done

let test_locality_prefers_home () =
  let p = Policy.locality () in
  let v = view ~loads:[| 0; 0; 0; 0; 0; 0; 0; 0 |] () in
  Alcotest.(check int) "home while light" 3 (Policy.place p v ~parent:3 ~affinity:None)

let test_locality_spills_nearby () =
  let p = Policy.locality () in
  (* parent 3 overloaded; nearest idle neighbour should win over a
     distant idle core *)
  let v = view ~loads:[| 0; 3; 3; 5; 0; 3; 3; 0 |] () in
  let c = Policy.place p v ~parent:3 ~affinity:None in
  Alcotest.(check bool)
    (Printf.sprintf "spilled close (got %d)" c)
    true
    (c = 4 || c = 2 || c = 1 || c = 0)

let test_non_stealing_policies () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Policy.name p ^ " steal flag")
        (Policy.name p = "work-steal") (Policy.steals p))
    (Policy.all ())

(* end-to-end: stealing must beat no-balancing on an imbalanced load *)
let test_steal_beats_parent_e2e () =
  let go policy =
    Runtime.run
      (Runtime.config ~policy (Machine.mesh ~cores:16))
      (fun () ->
        let fibers =
          List.init 64 (fun _ -> Fiber.spawn (fun () -> Fiber.work 4_000))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  let stuck = go Policy.parent in
  let stolen = go (Policy.work_steal ()) in
  Alcotest.(check bool) "stealing helps" true
    (stolen.Runstats.makespan * 2 < stuck.Runstats.makespan);
  Alcotest.(check bool) "steals happened" true (stolen.Runstats.steals > 0)

(* a steal takes a fiber queued behind a busy core, never a core's only
   fiber: [a] is alone on core 1, [c] waits behind [b] on core 2 *)
let test_steal_only_from_backlog () =
  let victims = ref [] and ran = Hashtbl.create 4 in
  let trace r =
    match r.Chorus.Trace.event with
    | Chorus.Trace.Steal { victim_core; _ } ->
      victims := victim_core :: !victims
    | _ -> ()
  in
  let s =
    Runtime.run
      (Runtime.config ~policy:(Policy.work_steal ()) ~trace
         (Machine.mesh ~cores:16))
      (fun () ->
        (* main returns rather than joins, so its own wake cannot queue
           behind a stolen fiber *)
        List.iter
          (fun (name, on) ->
            ignore
              (Fiber.spawn ~on (fun () ->
                   Hashtbl.replace ran name (Fiber.core (Fiber.self ()));
                   Fiber.work 20_000)
                : Fiber.t))
          [ ("a", 1); ("b", 2); ("c", 2) ])
  in
  Alcotest.(check int) "one steal" 1 s.Runstats.steals;
  Alcotest.(check (list int)) "from the backlogged core" [ 2 ] !victims;
  Alcotest.(check int) "a stays on core 1" 1 (Hashtbl.find ran "a");
  Alcotest.(check int) "b stays on core 2" 2 (Hashtbl.find ran "b");
  Alcotest.(check bool) "c moved off core 2" true (Hashtbl.find ran "c" <> 2)

(* a daemon is a service: a stealing policy spreads daemons over the
   cores in turn from core 1 and never steals one.  [d] lands on core 1
   behind [a] and waits there; [b], queued behind both, is the fiber
   taken *)
let test_steal_leaves_daemons () =
  let stolen = ref [] and ran = Hashtbl.create 4 in
  let trace r =
    match r.Chorus.Trace.event with
    | Chorus.Trace.Steal { fiber; _ } -> stolen := fiber :: !stolen
    | _ -> ()
  in
  let at name = Hashtbl.replace ran name (Fiber.core (Fiber.self ())) in
  let ids = Hashtbl.create 4 in
  let s =
    Runtime.run
      (Runtime.config ~policy:(Policy.work_steal ()) ~trace
         (Machine.mesh ~cores:16))
      (fun () ->
        let spawn name f = Hashtbl.replace ids name (Fiber.id (f ())) in
        spawn "a" (fun () ->
            Fiber.spawn ~on:1 (fun () ->
                at "a";
                Fiber.work 20_000));
        spawn "d" (fun () ->
            Fiber.spawn ~daemon:true (fun () ->
                at "d";
                Fiber.work 1_000));
        spawn "e" (fun () ->
            Fiber.spawn ~daemon:true (fun () ->
                at "e";
                Fiber.work 1_000));
        spawn "b" (fun () ->
            Fiber.spawn ~on:1 (fun () ->
                at "b";
                Fiber.work 40_000)))
  in
  Alcotest.(check int) "d spread to core 1" 1 (Hashtbl.find ran "d");
  Alcotest.(check int) "e spread to core 2" 2 (Hashtbl.find ran "e");
  Alcotest.(check (list int)) "only b stolen" [ Hashtbl.find ids "b" ] !stolen;
  Alcotest.(check int) "one steal" 1 s.Runstats.steals;
  Alcotest.(check bool) "b moved off core 1" true (Hashtbl.find ran "b" <> 1)

(* with no fiber ever queued behind another, a stealing chip runs the
   same events as one that never steals: idle cores park, they do not
   poll *)
let test_idle_steal_chip_adds_no_events () =
  let go policy =
    Runtime.run
      (Runtime.config ~policy (Machine.mesh ~cores:64))
      (fun () ->
        let fibers =
          List.init 8 (fun i ->
              Fiber.spawn ~on:((8 * i) + 1) (fun () ->
                  for _ = 1 to 5 do
                    Fiber.work 1_000;
                    Fiber.sleep 10_000
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  let still = go Policy.parent and steal = go (Policy.work_steal ()) in
  Alcotest.(check int) "no steals" 0 steal.Runstats.steals;
  Alcotest.(check int) "same events" still.Runstats.events
    steal.Runstats.events;
  Alcotest.(check int) "same makespan" still.Runstats.makespan
    steal.Runstats.makespan

let test_policies_deterministic () =
  List.iter
    (fun name ->
      let fresh () =
        List.find (fun p -> Policy.name p = name) (Policy.all ())
      in
      let go () =
        Runtime.run
          (Runtime.config ~policy:(fresh ()) ~seed:9 (Machine.mesh ~cores:8))
          (fun () ->
            let fibers =
              List.init 20 (fun i ->
                  Fiber.spawn (fun () -> Fiber.work (100 * (i + 1))))
            in
            List.iter (fun f -> ignore (Fiber.join f)) fibers)
      in
      let a = go () and b = go () in
      Alcotest.(check int) (name ^ " deterministic") a.Runstats.makespan
        b.Runstats.makespan)
    (List.map Policy.name (Policy.all ()))

let test_affinity_groups_colocate () =
  let p = Policy.affinity_groups () in
  let v = view ~cores:8 () in
  (* same key, same core, regardless of parent *)
  let c1 = Policy.place p v ~parent:0 ~affinity:(Some 42) in
  let c2 = Policy.place p v ~parent:5 ~affinity:(Some 42) in
  Alcotest.(check int) "gang colocated" c1 c2;
  (* different keys spread (statistically: at least two distinct cores
     over 16 keys) *)
  let cores =
    List.init 16 (fun k -> Policy.place p v ~parent:0 ~affinity:(Some k))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "keys spread" true (List.length cores > 2);
  (* no key: falls back to the default round-robin *)
  let f1 = Policy.place p v ~parent:0 ~affinity:None in
  let f2 = Policy.place p v ~parent:0 ~affinity:None in
  Alcotest.(check bool) "fallback rotates" true (f1 <> f2)

let test_affinity_e2e () =
  (* fibers of one gang land on one core *)
  let observed = ref [] in
  let (_ : Runstats.t) =
    Runtime.run
      (Runtime.config ~policy:(Policy.affinity_groups ())
         (Machine.mesh ~cores:16))
      (fun () ->
        let fibers =
          List.init 6 (fun i ->
              Fiber.spawn ~affinity:7 (fun () ->
                  observed := Fiber.core (Fiber.self ()) :: !observed;
                  Fiber.work (100 * i)))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  Alcotest.(check int) "one core for the gang" 1
    (List.length (List.sort_uniq compare !observed))

let () =
  Alcotest.run "chorus-sched"
    [ ( "pure",
        [ Alcotest.test_case "parent" `Quick test_parent_stays;
          Alcotest.test_case "round-robin" `Quick test_round_robin_cycles;
          Alcotest.test_case "least-loaded" `Quick test_least_loaded_picks_min;
          Alcotest.test_case "random range" `Quick test_random_in_range;
          Alcotest.test_case "locality home" `Quick test_locality_prefers_home;
          Alcotest.test_case "locality spill" `Quick
            test_locality_spills_nearby;
          Alcotest.test_case "non-stealing flags" `Quick
            test_non_stealing_policies;
          Alcotest.test_case "affinity colocates" `Quick
            test_affinity_groups_colocate ] );
      ( "end-to-end",
        [ Alcotest.test_case "steal beats parent" `Quick
            test_steal_beats_parent_e2e;
          Alcotest.test_case "steal only from a backlog" `Quick
            test_steal_only_from_backlog;
          Alcotest.test_case "steal leaves daemons" `Quick
            test_steal_leaves_daemons;
          Alcotest.test_case "idle stealing chip adds no events" `Quick
            test_idle_steal_chip_adds_no_events;
          Alcotest.test_case "all deterministic" `Quick
            test_policies_deterministic;
          Alcotest.test_case "affinity end-to-end" `Quick
            test_affinity_e2e ] ) ]
