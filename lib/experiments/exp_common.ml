module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Tablefmt = Chorus_util.Tablefmt
module Histogram = Chorus_util.Histogram
module Runstats = Chorus.Runstats
module Runtime = Chorus.Runtime
module Fsload = Chorus_workload.Fsload
module Kernel = Chorus_kernel.Kernel
module Libos = Chorus_kernel.Libos
module Shvfs = Chorus_baseline.Shvfs

let machine ?(hw = false) cores =
  if hw then Machine.mesh_hw ~cores else Machine.mesh ~cores

let run_machine ?policy ?(seed = 42) m main =
  let policy =
    match policy with Some p -> p | None -> Policy.round_robin ()
  in
  Runtime.run_result (Runtime.config ~policy ~seed m) main

let run ?policy ?seed ?hw ~cores main =
  run_machine ?policy ?seed (machine ?hw cores) main

type fs_server = Msg_kernel of Kernel.config | Lock_kernel | Libos

let run_fs ~seed m server cfg =
  run_machine ~seed m (fun () ->
      match server with
      | Msg_kernel config ->
        let module L = Fsload.Make (Chorus_kernel.Msgvfs) in
        let kern = Kernel.boot config in
        L.setup (Kernel.fs_client kern) cfg;
        L.run_clients (fun _ -> Kernel.fs_client kern) cfg
      | Lock_kernel ->
        let module L = Fsload.Make (Shvfs) in
        let sys = Shvfs.make Shvfs.default_config in
        L.setup (Shvfs.client sys) cfg;
        L.run_clients (fun _ -> Shvfs.client sys) cfg
      | Libos ->
        let module L = Fsload.Make (Libos) in
        let fs = Libos.make () in
        L.setup fs cfg;
        L.run_clients (fun _ -> fs) cfg)

let pick ~quick q f = if quick then q else f

let core_sweep ~quick =
  let top = if quick then 256 else 1024 in
  let rec go c = if c > top then [] else c :: go (c * 2) in
  go 1
