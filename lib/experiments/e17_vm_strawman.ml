(* E17 — the paper's conclusion strawman (Section 6): "The likely
   alternative is the thoroughly unsatisfying and inefficient approach
   of turning such a chip into a cluster of hundreds of apparently
   separate virtual machines, with a few cores each, running
   unmodified existing OSes."

   We build that alternative and price it.  The same 64-core chip runs
   the same skewed file workload two ways:

   - single system image: the message kernel, one vnode tree, clients
     reach any file directly through plumbed channels;
   - VM cluster: the chip is partitioned into 8 isolated 8-core "VMs",
     each running its own unmodified lock kernel over a private slice
     of the files; a client whose request targets another VM's slice
     must cross a virtual network (the {!Chorus_net} fabric) to a file
     server in the owning VM.

   With a shared working set, most accesses are remote for the
   cluster, each paying stack + wire + server costs; the single image
   pays on-chip messages.  The sweep over access skew shows when (if
   ever) the strawman is tolerable: only when the workload happens to
   partition perfectly. *)

open Exp_common
module Fiber = Chorus.Fiber
module Rng = Chorus_util.Rng
module Zipf = Chorus_util.Zipf
module Fsspec = Chorus_fsspec.Fsspec
module Msgvfs = Chorus_kernel.Msgvfs
module Kernel = Chorus_kernel.Kernel
module Shvfs = Chorus_baseline.Shvfs
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack

let cores = 64

let nvms = 8

let files = 128

let io_size = 256

let ops_per_client ~quick = pick ~quick 40 200

let nclients = 48

let path_of i = Printf.sprintf "/dir%d/file%d" (i mod 8) i

(* --------------------------------------------------------------- *)
(* Single system image: the message kernel                          *)

let single_image ~quick ~seed ~theta =
  let ops = ops_per_client ~quick in
  let (), stats =
    run ~seed ~cores (fun () ->
        let kern = Kernel.boot Kernel.default_config in
        let setup = Kernel.fs_client kern in
        for d = 0 to 7 do
          match Msgvfs.mkdir setup (Printf.sprintf "/dir%d" d) with
          | Ok () -> ()
          | Error e -> failwith (Fsspec.err_to_string e)
        done;
        for i = 0 to files - 1 do
          (match Msgvfs.create setup (path_of i) with
          | Ok () -> ()
          | Error _ -> failwith "setup");
          match Msgvfs.open_ setup (path_of i) with
          | Ok fd ->
            ignore (Msgvfs.write setup fd ~off:0 (String.make 1024 'x'));
            ignore (Msgvfs.close setup fd)
          | Error _ -> failwith "setup"
        done;
        let zipf = Zipf.make ~n:files ~theta in
        let clients =
          List.init nclients (fun c ->
              Fiber.spawn (fun () ->
                  let fs = Kernel.fs_client kern in
                  let rng = Rng.make (seed + c) in
                  let fds = Hashtbl.create 8 in
                  for _ = 1 to ops do
                    Fiber.work 300;
                    let i = Zipf.sample zipf rng in
                    let fd =
                      match Hashtbl.find_opt fds i with
                      | Some fd -> fd
                      | None ->
                        let fd =
                          match Msgvfs.open_ fs (path_of i) with
                          | Ok fd -> fd
                          | Error _ -> failwith "open"
                        in
                        Hashtbl.replace fds i fd;
                        fd
                    in
                    ignore (Msgvfs.read fs fd ~off:0 ~len:io_size)
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) clients)
  in
  Runstats.throughput stats ~ops:(nclients * ops)

(* --------------------------------------------------------------- *)
(* VM cluster: private lock kernels + a virtual network              *)

let vm_cluster ~quick ~seed ~theta =
  let ops = ops_per_client ~quick in
  let (), stats =
    run ~seed ~cores (fun () ->
        let net = Fabric.create ~latency:10_000 () in
        (* each VM: its cores are [vm*8, vm*8+7]; a private lock-kernel
           filesystem holding its slice of the files; one file-server
           fiber reachable over the fabric *)
        let vm_fs = Array.init nvms (fun _ -> Shvfs.make Shvfs.default_config) in
        let vm_stack =
          Array.init nvms (fun _ -> Stack.create net (Fabric.attach net ()))
        in
        let home i = i mod nvms in
        (* populate each VM's slice *)
        Array.iteri
          (fun vm sys ->
            let fs = Shvfs.client sys in
            for d = 0 to 7 do
              ignore (Shvfs.mkdir fs (Printf.sprintf "/dir%d" d))
            done;
            for i = 0 to files - 1 do
              if home i = vm then begin
                ignore (Shvfs.create fs (path_of i));
                match Shvfs.open_ fs (path_of i) with
                | Ok fd ->
                  ignore (Shvfs.write fs fd ~off:0 (String.make 1024 'x'));
                  ignore (Shvfs.close fs fd)
                | Error _ -> failwith "setup"
              end
            done)
          vm_fs;
        (* per-VM file server: read requests arrive as "<file-id>" *)
        Array.iteri
          (fun vm stack ->
            ignore
              (Fiber.spawn ~on:(vm * 8) ~daemon:true (fun () ->
                   let fs = Shvfs.client vm_fs.(vm) in
                   let fds = Hashtbl.create 8 in
                   Stack.serve stack ~port:42 (fun ~src:_ req ->
                       let i = int_of_string req in
                       let fd =
                         match Hashtbl.find_opt fds i with
                         | Some fd -> fd
                         | None ->
                           let fd =
                             match Shvfs.open_ fs (path_of i) with
                             | Ok fd -> fd
                             | Error _ -> failwith "srv open"
                           in
                           Hashtbl.replace fds i fd;
                           fd
                       in
                       match Shvfs.read fs fd ~off:0 ~len:io_size with
                       | Ok data -> data
                       | Error _ -> ""))))
          vm_stack;
        let zipf = Zipf.make ~n:files ~theta in
        let clients =
          List.init nclients (fun c ->
              let vm = c mod nvms in
              Fiber.spawn ~on:((vm * 8) + 1 + (c / nvms mod 7)) (fun () ->
                  let fs = Shvfs.client vm_fs.(vm) in
                  let rng = Rng.make (seed + c) in
                  let fds = Hashtbl.create 8 in
                  for _ = 1 to ops do
                    Fiber.work 300;
                    let i = Zipf.sample zipf rng in
                    if home i = vm then begin
                      (* local: ordinary (trap+locks) syscall *)
                      let fd =
                        match Hashtbl.find_opt fds i with
                        | Some fd -> fd
                        | None ->
                          let fd =
                            match Shvfs.open_ fs (path_of i) with
                            | Ok fd -> fd
                            | Error _ -> failwith "open"
                          in
                          Hashtbl.replace fds i fd;
                          fd
                      in
                      ignore (Shvfs.read fs fd ~off:0 ~len:io_size)
                    end
                    else
                      (* remote: cross the virtual network *)
                      ignore
                        (Stack.call vm_stack.(vm)
                           ~dst:(Stack.addr vm_stack.(home i))
                           ~port:42 (string_of_int i))
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) clients)
  in
  Runstats.throughput stats ~ops:(nclients * ops)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E17: one message kernel vs a chip partitioned into 8 VM islands"
      ~columns:
        [ ("workload skew", Tablefmt.Left);
          ("single image ops/Mcyc", Tablefmt.Right);
          ("VM cluster ops/Mcyc", Tablefmt.Right);
          ("single/cluster", Tablefmt.Right) ]
  in
  List.iter
    (fun (name, theta) ->
      let si = single_image ~quick ~seed ~theta in
      let vc = vm_cluster ~quick ~seed ~theta in
      Tablefmt.add_row t
        [ name;
          Tablefmt.cell_float si;
          Tablefmt.cell_float vc;
          Tablefmt.cell_float (si /. vc) ])
    [ ("uniform (theta=0)", 0.0);
      ("zipf 0.9", 0.9);
      ("zipf 1.2 (hot files)", 1.2) ];
  [ t ]
