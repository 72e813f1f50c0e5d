(* E12 — the aggressive design (Section 4): applications on bare cores
   with service code linked in libOS fashion, vs the conservative
   message-kernel syscall path, vs the dispatcher-routed conservative
   variant.

   One syscall-heavy application (small ops, no think time).  The libOS
   pays procedure-call prices but gives up cross-application sharing;
   the message paths pay per-op messages. *)

open Exp_common
module Fsload = Chorus_workload.Fsload
module Msgvfs = Chorus_kernel.Msgvfs
module Kernel = Chorus_kernel.Kernel

let load ~quick ~seed =
  { Fsload.default_config with
    clients = 1;
    ops_per_client = pick ~quick 300 3_000;
    files = 32;
    dirs = 4;
    file_size = 4096;
    io_size = 128;
    theta = 0.0;
    think = 0;
    seed }

let msg_kernel ~plumbing =
  Msg_kernel
    { Kernel.default_config with fs = { Msgvfs.plumbing; dispatchers = 2 } }

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:"E12: libOS (aggressive) vs message syscalls (conservative)"
      ~columns:
        [ ("design", Tablefmt.Left);
          ("ops/Mcyc", Tablefmt.Right);
          ("mean op latency", Tablefmt.Right) ]
  in
  let row name server =
    let r, _ = run_fs ~seed (machine 16) server (load ~quick ~seed) in
    Tablefmt.add_row t
      [ name;
        Tablefmt.cell_float (Fsload.throughput r);
        Tablefmt.cell_float (Histogram.mean r.Fsload.latency) ]
  in
  row "libOS (linked, bare core)" Libos;
  row "msg kernel, plumbed" (msg_kernel ~plumbing:true);
  row "msg kernel, dispatched" (msg_kernel ~plumbing:false);
  [ t ]
