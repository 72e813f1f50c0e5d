(* Tests for the time-travel replay debugger: snapshot determinism
   (same scenario, schedule and pause time => byte-identical dump,
   across both chaos scenarios), structural diffing, first-divergence
   detection on a failing/passing schedule pair, schedule parsing
   round-trips, engine stepping, and Inspect rendering invariants. *)

module Inspect = Chorus.Inspect
module Engine = Chorus.Engine
module Fiber = Chorus.Fiber
module Machine = Chorus_machine.Machine
module Chaos = Chorus_chaos.Chaos
module Schedule = Chorus_chaos.Schedule
module Snapshot = Chorus_debug.Snapshot
module Replay = Chorus_debug.Replay

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Snapshot determinism                                                *)

let check_deterministic what scenario sch ~at =
  let a = Replay.run_to scenario sch ~at in
  let b = Replay.run_to scenario sch ~at in
  Alcotest.(check string)
    (what ^ ": byte-identical render")
    (Inspect.render a.Replay.snapshot)
    (Inspect.render b.Replay.snapshot);
  Alcotest.(check string)
    (what ^ ": byte-identical json")
    (Inspect.to_json a.Replay.snapshot)
    (Inspect.to_json b.Replay.snapshot);
  Alcotest.(check int)
    (what ^ ": same trace length")
    (List.length a.Replay.trace)
    (List.length b.Replay.trace);
  Alcotest.(check bool) (what ^ ": identical traces") true
    (a.Replay.trace = b.Replay.trace);
  a

let test_determinism_disk () =
  let sch = Chaos.gen Chaos.Disk ~seed:7 ~index:2 in
  let r = check_deterministic "disk" Chaos.Disk sch ~at:300_000 in
  let text = Inspect.render r.Replay.snapshot in
  Alcotest.(check bool) "disk: engine state present" true
    (contains text "live_fibers:");
  Alcotest.(check bool) "disk: service inboxes present" true
    (contains text "svc/");
  Alcotest.(check bool) "disk: traced" true (r.Replay.trace <> [])

let test_determinism_kv () =
  let sch = Chaos.gen Chaos.Kv ~seed:7 ~index:1 in
  let r = check_deterministic "kv" Chaos.Kv sch ~at:1_500_000 in
  let text = Inspect.render r.Replay.snapshot in
  Alcotest.(check bool) "kv: raft state present" true
    (contains text "cluster/node0:");
  Alcotest.(check bool) "kv: shard roles present" true
    (contains text "role: leader")

let test_determinism_projfs () =
  let sch = Chaos.gen Chaos.Projfs ~seed:7 ~index:2 in
  let r = check_deterministic "projfs" Chaos.Projfs sch ~at:400_000 in
  let text = Inspect.render r.Replay.snapshot in
  Alcotest.(check bool) "projfs: hydration provider present" true
    (contains text "projfs/hydration");
  Alcotest.(check bool) "projfs: hydration endpoint inbox present" true
    (contains text "svc/projfs.hydrate")

let test_snapshot_not_observer_effect () =
  (* capturing a snapshot mid-run must not change where the run goes:
     the trace up to T is identical whether we pause at T or run past
     it, so inspection is pure observation.  Covers the projfs Inspect
     provider too: registering and rendering the hydration view must
     not perturb the run *)
  List.iter
    (fun (scenario, early_at, late_at) ->
      let sch = Chaos.gen scenario ~seed:7 ~index:2 in
      let early = Replay.run_to scenario sch ~at:early_at in
      let late = Replay.run_to scenario sch ~at:late_at in
      let n = List.length early.Replay.trace in
      Alcotest.(check bool) "longer run has more records" true
        (List.length late.Replay.trace >= n);
      let prefix = List.filteri (fun i _ -> i < n) late.Replay.trace in
      Alcotest.(check bool) "earlier trace is a prefix of the later one" true
        (prefix = early.Replay.trace))
    [ (Chaos.Disk, 200_000, 300_000); (Chaos.Projfs, 250_000, 400_000) ]

(* ------------------------------------------------------------------ *)
(* Diffing and divergence                                              *)

let test_diff_empty_on_same () =
  let sch = Chaos.gen Chaos.Disk ~seed:7 ~index:2 in
  let c = Replay.compare_runs Chaos.Disk sch sch ~at:300_000 in
  Alcotest.(check bool) "no divergence" true (c.Replay.divergence = None);
  Alcotest.(check int) "empty state diff" 0 (List.length c.Replay.state_diff)

let test_diff_neighbour () =
  (* a two-fault disk schedule vs. itself minus the fault that fires
     first: past the fault time the executions must have diverged *)
  let sch = Chaos.gen Chaos.Disk ~seed:7 ~index:2 in
  Alcotest.(check bool) "schedule has faults" true (Schedule.nfaults sch > 0);
  let neighbour =
    match List.rev (Schedule.subschedules sch) with
    | s :: _ -> s
    | [] -> Alcotest.fail "no subschedules"
  in
  let c = Replay.compare_runs Chaos.Disk sch neighbour ~at:450_000 in
  (match c.Replay.divergence with
  | None -> Alcotest.fail "expected a trace divergence"
  | Some d ->
    Alcotest.(check bool) "divergence has at least one side" true
      (d.Replay.left <> None || d.Replay.right <> None));
  Alcotest.(check bool) "non-empty state diff" true
    (c.Replay.state_diff <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "diff entries carry a path" true
        (e.Snapshot.path <> ""))
    c.Replay.state_diff

let test_diff_structural () =
  let open Inspect in
  let a =
    Assoc
      [ ("x", Int 1); ("y", List [ Int 1; Int 2 ]);
        ("sub", Assoc [ ("p", String "v") ]) ]
  in
  let b =
    Assoc
      [ ("x", Int 2); ("y", List [ Int 1 ]);
        ("sub", Assoc [ ("p", String "v"); ("q", Bool true) ]) ]
  in
  let d = Snapshot.diff a b in
  let paths = List.map (fun e -> e.Snapshot.path) d in
  Alcotest.(check (list string))
    "paths, left order"
    [ "x"; "y[1]"; "sub/q" ] paths;
  Alcotest.(check int) "same value diffs empty" 0
    (List.length (Snapshot.diff b b))

let test_first_divergence () =
  let r time : Chorus.Trace.record =
    { time; core = 0; fiber = 0; event = Chorus.Trace.Wake }
  in
  Alcotest.(check bool) "equal traces" true
    (Replay.first_divergence [ r 1; r 2 ] [ r 1; r 2 ] = None);
  (match Replay.first_divergence [ r 1; r 2 ] [ r 1; r 3 ] with
  | Some { Replay.index = 1; _ } -> ()
  | _ -> Alcotest.fail "expected divergence at index 1");
  match Replay.first_divergence [ r 1 ] [ r 1; r 2 ] with
  | Some { Replay.index = 1; left = None; right = Some _ } -> ()
  | _ -> Alcotest.fail "expected length divergence at index 1"

(* ------------------------------------------------------------------ *)
(* Schedule parsing                                                    *)

let test_schedule_roundtrip () =
  List.iter
    (fun scenario ->
      for index = 0 to 5 do
        let s = Chaos.gen scenario ~seed:(11 * (index + 1)) ~index in
        let printed = Schedule.to_string s in
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %s" printed)
          printed
          (Schedule.to_string (Schedule.of_string printed))
      done)
    [ Chaos.Disk; Chaos.Kv; Chaos.Projfs ];
  Alcotest.(check string) "fault-free" "seed=3 (no faults)"
    (Schedule.to_string (Schedule.of_string "seed=3 (no faults)"))

let test_schedule_rejects_garbage () =
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ ""; "seed="; "seed=1 flood(p=0.5)@1+2"; "seed=1 loss(p=x)@1+2";
      "seed=1 kill-provider@x+2"; "seed=1 kill-provider" ]

(* ------------------------------------------------------------------ *)
(* Engine stepping                                                     *)

let test_engine_stepping () =
  let cfg = Chorus.Runtime.config (Machine.mesh ~cores:4) in
  let eng = Engine.create cfg in
  let ticks = ref 0 in
  Engine.start eng (fun () ->
      for _ = 1 to 5 do
        Fiber.sleep 1_000;
        incr ticks
      done);
  Engine.run_until eng 2_500;
  let mid = !ticks in
  Alcotest.(check bool) "paused mid-run" true (mid > 0 && mid < 5);
  Alcotest.(check bool) "time within limit" true (Engine.now eng <= 2_500);
  Engine.run_until eng 2_500;
  Alcotest.(check int) "same-limit call is a no-op" mid !ticks;
  Engine.finish eng;
  Alcotest.(check int) "finish drains" 5 !ticks;
  Alcotest.(check bool) "drained" true (Engine.drained eng)

let test_engine_stepping_guard () =
  let cfg = Chorus.Runtime.config (Machine.mesh ~cores:4) in
  let eng = Engine.create cfg in
  match Engine.run_until eng 1_000 with
  | () -> Alcotest.fail "run_until before start should fail"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Inspect rendering                                                   *)

let test_inspect_json_escaping () =
  let open Inspect in
  Alcotest.(check string)
    "escapes" "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}"
    (to_json (Assoc [ ("k", String "a\"b\\c\nd\x01") ]));
  Alcotest.(check string) "non-finite floats" "[null,null]"
    (to_json (List [ Float nan; Float infinity ]))

let test_inspect_render_clean () =
  let open Inspect in
  let v =
    Assoc
      [ ("empty", List []); ("items", List [ Assoc [ ("a", Int 1) ] ]);
        ("n", Int 3) ]
  in
  let text = render v in
  Alcotest.(check string) "stable layout"
    "empty: []\nitems:\n  -\n    a: 1\nn: 3\n" text;
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         Alcotest.(check bool)
           (Printf.sprintf "no trailing space in %S" line)
           false
           (String.length line > 0 && line.[String.length line - 1] = ' '))

let () =
  Alcotest.run "debug"
    [ ( "snapshot",
        [ Alcotest.test_case "determinism-disk" `Quick test_determinism_disk;
          Alcotest.test_case "determinism-kv" `Quick test_determinism_kv;
          Alcotest.test_case "determinism-projfs" `Quick
            test_determinism_projfs;
          Alcotest.test_case "no-observer-effect" `Quick
            test_snapshot_not_observer_effect ] );
      ( "diff",
        [ Alcotest.test_case "empty-on-same" `Quick test_diff_empty_on_same;
          Alcotest.test_case "neighbour" `Quick test_diff_neighbour;
          Alcotest.test_case "structural" `Quick test_diff_structural;
          Alcotest.test_case "first-divergence" `Quick test_first_divergence ]
      );
      ( "schedule",
        [ Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "rejects-garbage" `Quick
            test_schedule_rejects_garbage ] );
      ( "engine",
        [ Alcotest.test_case "stepping" `Quick test_engine_stepping;
          Alcotest.test_case "stepping-guard" `Quick
            test_engine_stepping_guard ] );
      ( "inspect",
        [ Alcotest.test_case "json-escaping" `Quick test_inspect_json_escaping;
          Alcotest.test_case "render-clean" `Quick test_inspect_render_clean ]
      ) ]
