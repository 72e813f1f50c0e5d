(* E3 — the headline claim (Section 1): "conventional thread
   programming using locks and shared memory does not scale to hundreds
   of cores", while the shared-nothing message architecture keeps
   scaling.

   A file-server op mix runs on both kernels over a 1..1024-core sweep,
   with about one client fiber per core: cores - cores/8 - 1 of them.
   The cores held back are a client count, not a placement: the policy
   spreads the clients over every core, and the message kernel places
   its own services (DESIGN D22).
   Reported as throughput (ops per Mcycle) and speedup over the 1-core
   configuration of the same kernel.  The crossover core count — where
   the message kernel overtakes the lock kernel — is the figure's
   takeaway. *)

open Exp_common
module Fsload = Chorus_workload.Fsload
module Kernel = Chorus_kernel.Kernel

let load_config ~quick ~cores ~seed =
  { Fsload.default_config with
    clients = max 1 (cores - (cores / 8) - 1);
    ops_per_client = pick ~quick 30 120;
    files = 128;
    dirs = 16;
    file_size = 4096;
    io_size = 256;
    theta = 0.7;
    think = 300;
    seed }

let throughput ~quick ~seed cores server =
  let result, _ =
    run_fs ~seed (machine cores) server (load_config ~quick ~cores ~seed)
  in
  Fsload.throughput result

let msg_throughput ~quick ~seed cores =
  throughput ~quick ~seed cores
    (Msg_kernel
       { Kernel.default_config with
         bcache_shards = max 2 (cores / 8);
         cgroups = max 2 (cores / 16) })

(* One row of the core sweep: both kernels' ops/Mcycle at [cores]. *)
type row = { cores : int; msg : float; lock : float }

(* The sweep E3's table and BENCH_e3.json report, one row per core
   count, 1 core first. *)
let sweep ~quick ~seed =
  List.map
    (fun cores ->
      let msg = msg_throughput ~quick ~seed cores in
      let lock = throughput ~quick ~seed cores Lock_kernel in
      { cores; msg; lock })
    (core_sweep ~quick)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E3: file-server throughput scaling, message kernel vs lock kernel"
      ~columns:
        [ ("cores", Tablefmt.Right);
          ("msg ops/Mcyc", Tablefmt.Right);
          ("lock ops/Mcyc", Tablefmt.Right);
          ("msg speedup", Tablefmt.Right);
          ("lock speedup", Tablefmt.Right);
          ("msg/lock", Tablefmt.Right) ]
  in
  let rows = sweep ~quick ~seed in
  let base = List.hd rows in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [ string_of_int r.cores;
          Tablefmt.cell_float r.msg;
          Tablefmt.cell_float r.lock;
          Tablefmt.cell_float (r.msg /. base.msg);
          Tablefmt.cell_float (r.lock /. base.lock);
          Tablefmt.cell_float (r.msg /. r.lock) ])
    rows;
  let note =
    Tablefmt.create ~title:"E3: crossover"
      ~columns:[ ("finding", Tablefmt.Left) ]
  in
  Tablefmt.add_row note
    [ (match List.find_opt (fun r -> r.msg > r.lock) rows with
      | Some r ->
        Printf.sprintf
          "message kernel overtakes the lock kernel at %d cores" r.cores
      | None -> "no crossover observed in this sweep") ];
  [ t; note ]
