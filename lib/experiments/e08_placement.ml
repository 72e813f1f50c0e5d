(* E8 — "deciding which threads to place on which cores ... is likely
   to present a new range of difficulties" (Section 5).

   Two workload shapes on a 64-core mesh under each placement policy:
   a deep pipeline (communication-bound: wants neighbours together) and
   a fork/join fan-out of independent work (CPU-bound: wants
   spreading).  No policy that places a fiber once, at spawn, wins
   both — the difficulty the paper predicts; work stealing, which
   moves queued fibers onto idle cores at run time, wins both. *)

open Exp_common
module Fiber = Chorus.Fiber
module Pipeline = Chorus_workload.Pipeline

let pipeline_makespan ~quick ~seed policy =
  let cfg =
    { Pipeline.default_config with
      stages = 16;
      items = pick ~quick 300 2_000;
      work_per_stage = 150;
      capacity = 4;
      (* the affinity policy needs keys to act on; other policies
         ignore them *)
      pair_affinity = Chorus_sched.Policy.name policy = "affinity" }
  in
  let result, stats =
    run ~policy ~seed ~cores:64 (fun () -> Pipeline.run cfg)
  in
  ignore result;
  stats

let forkjoin_makespan ~quick ~seed policy =
  let tasks = pick ~quick 256 1_024 in
  let (), stats =
    run ~policy ~seed ~cores:64 (fun () ->
        let fibers =
          List.init tasks (fun _ -> Fiber.spawn (fun () -> Fiber.work 5_000))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  stats

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:"E8: placement policies on a 64-core mesh (lower is better)"
      ~columns:
        [ ("policy", Tablefmt.Left);
          ("pipeline makespan", Tablefmt.Right);
          ("pipe util %", Tablefmt.Right);
          ("forkjoin makespan", Tablefmt.Right);
          ("fj util %", Tablefmt.Right);
          ("fj steals", Tablefmt.Right) ]
  in
  List.iter
    (fun policy_name ->
      (* fresh policy instance per workload run (stateful counters) *)
      let find () =
        List.find
          (fun p -> Chorus_sched.Policy.name p = policy_name)
          (Chorus_sched.Policy.all ())
      in
      let ps = pipeline_makespan ~quick ~seed (find ()) in
      let fs = forkjoin_makespan ~quick ~seed (find ()) in
      Tablefmt.add_row t
        [ policy_name;
          string_of_int ps.Runstats.makespan;
          Tablefmt.cell_float (100.0 *. ps.Runstats.utilization);
          string_of_int fs.Runstats.makespan;
          Tablefmt.cell_float (100.0 *. fs.Runstats.utilization);
          string_of_int fs.Runstats.steals ])
    (List.map Chorus_sched.Policy.name (Chorus_sched.Policy.all ()));
  [ t ]
