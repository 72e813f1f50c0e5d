(* E18 — message weight classes (paper Section 2).

   The related-work section sorts messaging systems into weight
   classes: lightweight channels (this paper, Erlang, Go), synchronous
   kernel IPC ("really procedure calls" — L4), and middleweight port
   IPC (Mach, distributed OSes).  All three run the same null-RPC
   exercise on the same machine: a server increments an integer.

   Prediction implicit in Section 2-3: lightweight channels sit well
   under L4, which sits well under Mach — that ordering is the paper's
   reason to reject existing microkernel IPC as the substrate. *)

open Exp_common
module Fiber = Chorus.Fiber
module Svc = Chorus_svc.Svc
module Machipc = Chorus_baseline.Machipc

let n_calls ~quick = pick ~quick 2_000 20_000

type mech = Chan_rpc | L4_sync | Mach_port

let name = function
  | Chan_rpc -> "lightweight channel rpc"
  | L4_sync -> "L4-style synchronous ipc"
  | Mach_port -> "Mach-style port ipc"

let latency_of ~quick ~seed mech =
  let n = n_calls ~quick in
  let (), stats =
    run ~seed ~cores:4 (fun () ->
        match mech with
        | Chan_rpc ->
          let ep = Svc.create ~subsystem:"ipc" ~label:"null-rpc" () in
          let _srv =
            Fiber.spawn ~on:1 ~daemon:true (fun () ->
                Svc.serve ep (fun x -> x + 1))
          in
          let f =
            Fiber.spawn ~on:0 (fun () ->
                for i = 1 to n do
                  ignore (Svc.call ep i)
                done)
          in
          ignore (Fiber.join f)
        | L4_sync ->
          let gate = Machipc.Sync.create () in
          let _srv =
            Fiber.spawn ~on:1 ~daemon:true (fun () ->
                Machipc.Sync.serve gate (fun x -> x + 1))
          in
          let f =
            Fiber.spawn ~on:0 (fun () ->
                for i = 1 to n do
                  ignore (Machipc.Sync.call gate i)
                done)
          in
          ignore (Fiber.join f)
        | Mach_port ->
          let port = Machipc.Port.create () in
          let _srv =
            Fiber.spawn ~on:1 ~daemon:true (fun () ->
                let rec loop () =
                  let x, reply = Machipc.Port.recv port in
                  Machipc.Port.send reply (x + 1);
                  loop ()
                in
                loop ())
          in
          let f =
            Fiber.spawn ~on:0 (fun () ->
                for i = 1 to n do
                  ignore (Machipc.Port.rpc port i)
                done)
          in
          ignore (Fiber.join f))
  in
  float_of_int stats.Runstats.makespan /. float_of_int n

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:"E18: null RPC by message weight class (cycles per call)"
      ~columns:
        [ ("mechanism", Tablefmt.Left);
          ("cycles/call", Tablefmt.Right);
          ("x channels", Tablefmt.Right) ]
  in
  let base = latency_of ~quick ~seed Chan_rpc in
  List.iter
    (fun mech ->
      let lat = latency_of ~quick ~seed mech in
      Tablefmt.add_row t
        [ name mech;
          Tablefmt.cell_float lat;
          Tablefmt.cell_float (lat /. base) ])
    [ Chan_rpc; L4_sync; Mach_port ];
  [ t ]
