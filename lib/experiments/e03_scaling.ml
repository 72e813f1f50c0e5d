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
module Fiber = Chorus.Fiber
module Fsload = Chorus_workload.Fsload
module Msgvfs = Chorus_kernel.Msgvfs
module Kernel = Chorus_kernel.Kernel
module Shvfs = Chorus_baseline.Shvfs

module Msg_load = Fsload.Make (Msgvfs)
module Sh_load = Fsload.Make (Shvfs)

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

let msg_throughput ~quick ~seed cores =
  let cfg = load_config ~quick ~cores ~seed in
  let result, stats =
    run ~seed ~cores (fun () ->
        let kern =
          Kernel.boot
            { Kernel.default_config with
              bcache_shards = max 2 (cores / 8);
              cgroups = max 2 (cores / 16) }
        in
        let setup_fs = Kernel.fs_client kern in
        Msg_load.setup setup_fs cfg;
        Msg_load.run_clients (fun _ -> Kernel.fs_client kern) cfg)
  in
  (Fsload.throughput result, result, stats)

let lock_throughput ~quick ~seed cores =
  let cfg = load_config ~quick ~cores ~seed in
  let result, stats =
    run ~seed ~cores (fun () ->
        let sys = Shvfs.make Shvfs.default_config in
        let setup_fs = Shvfs.client sys in
        Sh_load.setup setup_fs cfg;
        Sh_load.run_clients (fun _ -> Shvfs.client sys) cfg)
  in
  (Fsload.throughput result, result, stats)

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
  let base_msg = ref 0.0 and base_lock = ref 0.0 in
  let crossover = ref None in
  List.iter
    (fun cores ->
      let msg, _, _ = msg_throughput ~quick ~seed cores in
      let lock, _, _ = lock_throughput ~quick ~seed cores in
      if cores = 1 then begin
        base_msg := msg;
        base_lock := lock
      end;
      if msg > lock && !crossover = None then crossover := Some cores;
      Tablefmt.add_row t
        [ string_of_int cores;
          Tablefmt.cell_float msg;
          Tablefmt.cell_float lock;
          Tablefmt.cell_float (msg /. !base_msg);
          Tablefmt.cell_float (lock /. !base_lock);
          Tablefmt.cell_float (msg /. lock) ])
    (core_sweep ~quick);
  let note =
    Tablefmt.create ~title:"E3: crossover"
      ~columns:[ ("finding", Tablefmt.Left) ]
  in
  Tablefmt.add_row note
    [ (match !crossover with
      | Some c ->
        Printf.sprintf
          "message kernel overtakes the lock kernel at %d cores" c
      | None -> "no crossover observed in this sweep") ];
  [ t; note ]
