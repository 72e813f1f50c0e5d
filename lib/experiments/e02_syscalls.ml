(* E2 — system calls without mode transitions (Section 4), including
   the paper's supposition of native hardware message support and the
   FlexSC middle point it cites [22].

   A null syscall (fixed 100 cycles of kernel work) is issued N times
   through four mechanisms; reported as cycles per call (single client,
   latency) and completions per Mcycle with one client per core
   (throughput at 64 cores). *)

open Exp_common
module Fiber = Chorus.Fiber
module Svc = Chorus_svc.Svc
module Trap = Chorus_baseline.Trap
module Flexsc = Chorus_baseline.Flexsc

let kernel_work = 100

type mech = Msg | Msg_hw | Trap_each | Flexsc_batch of int

let mech_name = function
  | Msg -> "message (sw)"
  | Msg_hw -> "message (hw support)"
  | Trap_each -> "trap per call"
  | Flexsc_batch n -> Printf.sprintf "flexsc batch=%d" n

(* one kernel service fiber per core handles message syscalls for the
   clients on nearby cores *)
let start_services cores =
  let nservice = max 1 (cores / 4) in
  Array.init nservice (fun i ->
      let ep =
        Svc.create ~subsystem:"syscall" ~label:(Printf.sprintf "sys-%d" i) ()
      in
      ignore
        (Fiber.spawn ~on:(i * cores / nservice) ~daemon:true (fun () ->
             Svc.serve ep (fun () -> Fiber.work kernel_work)));
      ep)

let client_loop mech services ~cores ~ops =
  match mech with
  | Msg | Msg_hw ->
    let me = Fiber.core (Fiber.self ()) in
    (* talk to the service responsible for this region of the mesh *)
    let ep =
      services.(min (Array.length services - 1)
                  (me * Array.length services / cores))
    in
    for _ = 1 to ops do
      Svc.call ep ()
    done
  | Trap_each ->
    for _ = 1 to ops do
      Trap.syscall (fun () -> Fiber.work kernel_work)
    done
  | Flexsc_batch n ->
    let page = Flexsc.create ~batch:n () in
    for _ = 1 to ops do
      Flexsc.submit page (fun () -> Fiber.work kernel_work)
    done;
    Flexsc.flush page

let latency_of mech ~quick =
  let ops = pick ~quick 2_000 20_000 in
  let hw = mech = Msg_hw in
  let (), stats =
    run ~hw ~cores:64 (fun () ->
        let services =
          match mech with Msg | Msg_hw -> start_services 64 | _ -> [||]
        in
        let f = Fiber.spawn ~on:32 (fun () -> client_loop mech services ~cores:64 ~ops) in
        ignore (Fiber.join f))
  in
  float_of_int stats.Runstats.makespan /. float_of_int ops

let throughput_of mech ~quick =
  let cores = 64 in
  let clients = 48 in
  let ops = pick ~quick 200 1_000 in
  let hw = mech = Msg_hw in
  let (), stats =
    run ~hw ~cores (fun () ->
        let services =
          match mech with Msg | Msg_hw -> start_services cores | _ -> [||]
        in
        let fibers =
          List.init clients (fun i ->
              Fiber.spawn ~on:(8 + (i mod (cores - 8))) (fun () ->
                  client_loop mech services ~cores ~ops))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  Runstats.throughput stats ~ops:(clients * ops)

let run ~quick ~seed =
  ignore seed;
  let mechs = [ Trap_each; Flexsc_batch 8; Flexsc_batch 32; Msg; Msg_hw ] in
  let t =
    Tablefmt.create
      ~title:
        "E2: null syscall (100-cycle kernel op) by entry mechanism, 64 cores"
      ~columns:
        [ ("mechanism", Tablefmt.Left);
          ("latency cyc", Tablefmt.Right);
          ("tput ops/Mcyc (48 clients)", Tablefmt.Right) ]
  in
  List.iter
    (fun m ->
      let lat = latency_of m ~quick in
      let tput = throughput_of m ~quick in
      Tablefmt.add_row t
        [ mech_name m; Tablefmt.cell_float lat; Tablefmt.cell_float tput ])
    mechs;
  [ t ]
