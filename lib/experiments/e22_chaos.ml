(* E22 — chaos campaign over the service and cluster planes (S1/S5).

   The paper's reliability posture is Erlang's: "aiming for not
   failing" through supervision and restart rather than proving
   components never crash.  This experiment is the posture's audit: a
   campaign driver enumerates deterministic fault schedules — service
   fiber kills at crash points, whole-node crashes, fabric loss /
   duplication / reordering / delay windows, transient disk read
   errors — runs a recorded client workload under each, and checks
   four oracles after every run: per-key linearizability (Wing–Gong
   over the client histories), durability of acked writes, bounded
   recovery after the last fault clears, and quiescence (no leaked
   fibers, no stuck inboxes).

   Because every run is a pure function of its schedule, a failing
   schedule IS the reproducer: it replays byte-identically and shrinks
   greedily to a minimal fault set.  The selftest row plants a
   corrupted history and confirms the oracles actually fire — a
   checker that passes everything is the quietest way to be wrong. *)

open Exp_common
module Chaos = Chorus_chaos.Chaos
module Schedule = Chorus_chaos.Schedule

(* A campaign report's simulator-side rows; `chorus_sim chaos` prints
   the same table with its host rows appended. *)
let campaign_table ~title (r : Chaos.report) =
  let t =
    Tablefmt.create ~title
      ~columns:[ ("metric", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  let addi name v = Tablefmt.add_row t [ name; string_of_int v ] in
  addi "runs" r.runs;
  addi "client ops recorded" r.total_ops;
  addi "faults injected" r.faults_injected;
  List.iter (fun (kind, n) -> addi ("faults explored: " ^ kind) n) r.kinds;
  addi "oracle violations" (List.length r.violations);
  t

(* The campaign's runs per scenario; BENCH_chaos.json holds the full
   size. *)
let runs ~quick =
  [ (Chaos.Disk, pick ~quick 24 160); (Chaos.Kv, pick ~quick 8 48) ]

let run ~quick ~seed =
  let r = Chaos.campaign ~seed (runs ~quick) in
  let t = campaign_table ~title:"chaos campaign" r in
  List.iter
    (fun v ->
      Tablefmt.add_row t
        [ "  violating schedule"; Schedule.to_string v.Chaos.schedule ];
      Tablefmt.add_row t
        [ "  shrunk reproducer"; Schedule.to_string v.Chaos.minimal ])
    r.Chaos.violations;
  let st = Chaos.selftest ~seed in
  let s =
    Tablefmt.create ~title:"oracle selftest (planted violation)"
      ~columns:[ ("check", Tablefmt.Left); ("result", Tablefmt.Right) ]
  in
  Tablefmt.add_row s
    [ "planted violation caught"; string_of_bool st.Chaos.caught ];
  Tablefmt.add_row s
    [ "shrunk to faults"; string_of_int st.Chaos.minimal_faults ];
  Tablefmt.add_row s
    [ "minimal schedule replays byte-identically";
      string_of_bool st.Chaos.st_replay_identical ];
  [ t; s ]
