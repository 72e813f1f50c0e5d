(* E15 — sensitivity of the headline result to message costs.

   Our substrate is a cost model, so the honest question is: how much
   of E3's conclusion depends on the message-cost constants?  The
   file-server comparison at 64 cores is repeated with the four
   message-cost fields scaled from 4x (pessimistic software messaging)
   down to 0.25x and the hardware-support preset; the lock kernel is
   re-run on the same machine as the reference (its syscalls don't use
   messages, but copies do, so it moves slightly too).

   The claim survives if the message kernel stays ahead across the
   whole plausible range — and where it stops being ahead is exactly
   the "how much hardware support does this need" answer the paper
   leaves open (Section 4). *)

open Exp_common
module Cost = Chorus_machine.Cost
module Topology = Chorus_machine.Topology
module Fsload = Chorus_workload.Fsload
module Kernel = Chorus_kernel.Kernel

(* E16 runs this load too *)
let load_config ~quick ~seed =
  { Fsload.default_config with
    clients = 56;
    ops_per_client = pick ~quick 40 200;
    files = 128;
    dirs = 16;
    io_size = 256;
    theta = 0.7;
    think = 300;
    seed }

let tput ~quick ~seed costs server =
  let m = Machine.make (Topology.make (Topology.Mesh (8, 8))) costs in
  let result, _ = run_fs ~seed m server (load_config ~quick ~seed) in
  Fsload.throughput result

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E15: message-cost sensitivity (file server, 64 cores, 56 clients)"
      ~columns:
        [ ("message costs", Tablefmt.Left);
          ("msg ops/Mcyc", Tablefmt.Right);
          ("lock ops/Mcyc", Tablefmt.Right);
          ("msg/lock", Tablefmt.Right) ]
  in
  let variants =
    [ ("software x4", Cost.scale_messages Cost.software_messages 4.0);
      ("software x2", Cost.scale_messages Cost.software_messages 2.0);
      ("software x1 (default)", Cost.software_messages);
      ("software x0.5", Cost.scale_messages Cost.software_messages 0.5);
      ("software x0.25", Cost.scale_messages Cost.software_messages 0.25);
      ("hardware support", Cost.hardware_messages) ]
  in
  List.iter
    (fun (name, costs) ->
      let msg = tput ~quick ~seed costs (Msg_kernel Kernel.default_config) in
      let lock = tput ~quick ~seed costs Lock_kernel in
      Tablefmt.add_row t
        [ name;
          Tablefmt.cell_float msg;
          Tablefmt.cell_float lock;
          Tablefmt.cell_float (msg /. lock) ])
    variants;
  [ t ]
