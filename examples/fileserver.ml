(* Fileserver: boot the message-passing kernel's file server on a
   64-core mesh, start a console beside it, run a skewed file-server
   workload against its vnode-per-fiber VFS, and print per-op latency
   plus kernel internals.

   Run with:  dune exec examples/fileserver.exe *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Histogram = Chorus_util.Histogram
module Kernel = Chorus_kernel.Kernel
module Msgvfs = Chorus_kernel.Msgvfs
module Console = Chorus_kernel.Console
module Fsload = Chorus_workload.Fsload
module Load = Fsload.Make (Msgvfs)

let () =
  let cfg =
    Runtime.config ~policy:(Policy.round_robin ()) ~seed:7
      (Machine.mesh ~cores:64)
  in
  let stats =
    Runtime.run cfg (fun () ->
        let kern = Kernel.boot Kernel.default_config in
        let console = Console.start () in
        Console.write_line console "chorus kernel booted";
        let load =
          { Fsload.default_config with
            clients = 24;
            ops_per_client = 150;
            files = 96;
            dirs = 12;
            io_size = 512;
            theta = 0.9 }
        in
        Load.setup (Kernel.fs_client kern) load;
        Printf.printf "population: %d files in %d dirs; %d vnode fibers live\n"
          load.Fsload.files load.Fsload.dirs
          (Msgvfs.live_vnodes kern.Kernel.vfs);
        let r = Load.run_clients (fun _ -> Kernel.fs_client kern) load in
        Printf.printf
          "\n%d ops from %d clients in %d cycles (%.1f ops/Mcycle)\n\n"
          r.Fsload.total_ops load.Fsload.clients r.Fsload.elapsed
          (Fsload.throughput r);
        Printf.printf "%-8s %8s %8s %8s %8s\n" "op" "count" "mean" "p95" "p99";
        List.iter
          (fun (name, h) ->
            Printf.printf "%-8s %8d %8.0f %8d %8d\n" name (Histogram.count h)
              (Histogram.mean h)
              (Histogram.percentile h 95.0)
              (Histogram.percentile h 99.0))
          r.Fsload.per_op;
        Printf.printf "\nkernel: %d service fibers, bcache %d hits / %d misses\n"
          (Kernel.service_fibers kern)
          (Chorus_kernel.Bcache.hits kern.Kernel.bcache)
          (Chorus_kernel.Bcache.misses kern.Kernel.bcache);
        Printf.printf "disk: %d reads, %d writes, request queue peak %d\n"
          (Chorus_kernel.Blockdev.reads kern.Kernel.dev)
          (Chorus_kernel.Blockdev.writes kern.Kernel.dev)
          (Chorus_kernel.Blockdev.max_queue kern.Kernel.dev);
        Console.write_line console "workload complete")
  in
  Printf.printf
    "\nmachine: makespan %d cycles, utilization %.1f%%, %d msgs (%d remote)\n"
    stats.Chorus.Runstats.makespan
    (100.0 *. stats.Chorus.Runstats.utilization)
    stats.Chorus.Runstats.msgs stats.Chorus.Runstats.remote_msgs
