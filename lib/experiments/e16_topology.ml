(* E16 — topology ablation.

   The paper is agnostic about what the interconnect of a
   hundreds-of-cores chip looks like.  E15's 64-core file-server load
   runs on a crossbar (uniform 1 hop), a mesh, a ring (long
   average paths), and a 2-die hierarchy (cheap clusters, expensive
   die crossings); reported with the observed mean hop count per
   message.  The message kernel's sensitivity to hop distance is the
   flip side of its locality opportunities. *)

open Exp_common
module Topology = Chorus_machine.Topology
module Cost = Chorus_machine.Cost
module Fsload = Chorus_workload.Fsload
module Kernel = Chorus_kernel.Kernel

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:"E16: topology ablation (message kernel, 64 cores)"
      ~columns:
        [ ("topology", Tablefmt.Left);
          ("diameter", Tablefmt.Right);
          ("ops/Mcyc", Tablefmt.Right);
          ("mean hops/msg", Tablefmt.Right);
          ("remote frac %", Tablefmt.Right) ]
  in
  let shapes =
    [ ("crossbar-64", Topology.Crossbar 64);
      ("mesh-8x8", Topology.Mesh (8, 8));
      ("ring-64", Topology.Ring 64);
      ("hier-2x4x8", Topology.Hierarchy (2, 4, 8)) ]
  in
  List.iter
    (fun (name, shape) ->
      let topo = Topology.make shape in
      let m = Machine.make topo Cost.software_messages in
      let result, stats =
        run_fs ~seed m (Msg_kernel Kernel.default_config)
          (E15_sensitivity.load_config ~quick ~seed)
      in
      let mean_hops =
        if stats.Runstats.msgs = 0 then 0.0
        else float_of_int stats.Runstats.hops /. float_of_int stats.Runstats.msgs
      in
      let remote_frac =
        if stats.Runstats.msgs = 0 then 0.0
        else
          100.0 *. float_of_int stats.Runstats.remote_msgs
          /. float_of_int stats.Runstats.msgs
      in
      Tablefmt.add_row t
        [ name;
          string_of_int (Topology.diameter topo);
          Tablefmt.cell_float (Fsload.throughput result);
          Tablefmt.cell_float mean_hops;
          Tablefmt.cell_float remote_frac ])
    shapes;
  [ t ]
