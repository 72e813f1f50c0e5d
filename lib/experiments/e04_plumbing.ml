(* E4 — channel plumbing (Section 3): "plumb a connection by passing
   around a channel to be used to carry data, and then afterwards move
   the data directly to its destination by a single send operation."

   Per-operation mean latency at 64 cores for three syscall paths:
   message kernel with plumbed file handles (data ops go straight to
   the vnode), message kernel with dispatcher routing (every op takes
   an extra kernel-entry hop), and the trap+locks baseline. *)

open Exp_common
module Fsload = Chorus_workload.Fsload
module Msgvfs = Chorus_kernel.Msgvfs
module Kernel = Chorus_kernel.Kernel

let cores = 64

let load_config ~quick ~seed =
  { Fsload.default_config with
    clients = 32;
    ops_per_client = pick ~quick 60 400;
    files = 96;
    dirs = 12;
    io_size = 1024;
    theta = 0.6;
    think = 100;
    seed }

let result ~quick ~seed server =
  fst (run_fs ~seed (machine cores) server (load_config ~quick ~seed))

let msg_kernel ~plumbing =
  Msg_kernel
    { Kernel.default_config with fs = { Msgvfs.plumbing; dispatchers = 8 } }

let ops = [ "read"; "write"; "stat"; "create" ]

let mean_for result name =
  match List.assoc_opt name result.Fsload.per_op with
  | Some h -> Histogram.mean h
  | None -> nan

let run ~quick ~seed =
  let plumbed = result ~quick ~seed (msg_kernel ~plumbing:true) in
  let routed = result ~quick ~seed (msg_kernel ~plumbing:false) in
  let locked = result ~quick ~seed Lock_kernel in
  let t =
    Tablefmt.create
      ~title:"E4: mean op latency (cycles) at 64 cores, 32 clients"
      ~columns:
        [ ("op", Tablefmt.Left);
          ("msg plumbed", Tablefmt.Right);
          ("msg dispatched", Tablefmt.Right);
          ("lock kernel", Tablefmt.Right);
          ("plumb gain", Tablefmt.Right) ]
  in
  List.iter
    (fun name ->
      let p = mean_for plumbed name in
      let r = mean_for routed name in
      let l = mean_for locked name in
      Tablefmt.add_row t
        [ name;
          Tablefmt.cell_float p;
          Tablefmt.cell_float r;
          Tablefmt.cell_float l;
          Tablefmt.cell_float (r /. p) ])
    ops;
  [ t ]
