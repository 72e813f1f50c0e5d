(* E7 — asynchronous notification (Section 3.1): with signals, a
   process working in the kernel "must abandon and unwind everything
   that was in progress ... then the process must restart the system
   call and redo all the work it just unwound.  This is unnecessarily
   wasteful."

   An application performs a stream of 5000-cycle system calls while
   I/O completions arrive asynchronously.  Three delivery mechanisms:

   - signal: interrupt, unwind, deliver, restart the syscall;
   - channel: a peer event fiber receives completions directly;
   - polling: the app checks a completion queue between syscalls.

   Reported: mean/p99 notification latency, wasted (redone) cycles, and
   total makespan for the same offered load. *)

open Exp_common
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Signals = Chorus_baseline.Signals
module Histogram = Chorus_util.Histogram
module Rng = Chorus_util.Rng

let syscall_work = 5_000

let completion_gap = 9_000

let n_syscalls ~quick = pick ~quick 200 1_500

let n_completions ~quick = pick ~quick 100 750

(* generates completions at (deterministically) jittered intervals *)
let generator ~quick ~seed emit =
  let rng = Rng.make seed in
  Fiber.spawn ~label:"device" ~daemon:true (fun () ->
      for i = 1 to n_completions ~quick do
        Fiber.sleep (completion_gap + Rng.int rng 2_000);
        emit i
      done)

let signals_run ~quick ~seed =
  let latency = Histogram.create () in
  let wasted = ref 0 in
  let (), stats =
    run ~seed ~cores:4 (fun () ->
        let proc = Signals.create () in
        let remaining = ref (n_completions ~quick) in
        let _gen =
          generator ~quick ~seed (fun _ ->
              let born = Fiber.now () in
              Signals.deliver proc ~handler:(fun () ->
                  decr remaining;
                  Histogram.record latency (Fiber.now () - born)))
        in
        let worker =
          Fiber.spawn ~label:"app" (fun () ->
              for _ = 1 to n_syscalls ~quick do
                Signals.interruptible_syscall proc ~work:syscall_work
              done;
              (* drain any completions that arrive after the syscall
                 stream finished *)
              while !remaining > 0 do
                Signals.wait_signal proc
              done)
        in
        ignore (Fiber.join worker);
        wasted := Signals.wasted_cycles proc)
  in
  (latency, !wasted, stats.Runstats.makespan)

let channel_run ~quick ~seed =
  let latency = Histogram.create () in
  let (), stats =
    run ~seed ~cores:4 (fun () ->
        let events = Chan.unbounded ~label:"completions" () in
        let _gen =
          generator ~quick ~seed (fun _ -> Chan.send events (Fiber.now ()))
        in
        (* a peer fiber owns notification; the worker is never
           disturbed *)
        let watcher =
          Fiber.spawn ~label:"watcher" (fun () ->
              for _ = 1 to n_completions ~quick do
                let born = Chan.recv events in
                Histogram.record latency (Fiber.now () - born)
              done)
        in
        let worker =
          Fiber.spawn ~label:"app" (fun () ->
              for _ = 1 to n_syscalls ~quick do
                Fiber.work syscall_work
              done)
        in
        ignore (Fiber.join worker);
        ignore (Fiber.join watcher))
  in
  (latency, 0, stats.Runstats.makespan)

let polling_run ~quick ~seed =
  let latency = Histogram.create () in
  let (), stats =
    run ~seed ~cores:4 (fun () ->
        let events = Chan.unbounded ~label:"completions" () in
        let _gen =
          generator ~quick ~seed (fun _ -> Chan.send events (Fiber.now ()))
        in
        let seen = ref 0 in
        let worker =
          Fiber.spawn ~label:"app" (fun () ->
              let poll () =
                let rec drain () =
                  match Chan.try_recv events with
                  | Some born ->
                    incr seen;
                    Histogram.record latency (Fiber.now () - born);
                    drain ()
                  | None -> ()
                in
                drain ()
              in
              for _ = 1 to n_syscalls ~quick do
                Fiber.work syscall_work;
                (* a syscall boundary is a scheduling point *)
                Fiber.yield ();
                poll ()
              done;
              while !seen < n_completions ~quick do
                Fiber.sleep 1_000;
                poll ()
              done)
        in
        ignore (Fiber.join worker))
  in
  (latency, 0, stats.Runstats.makespan)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E7: async I/O-completion delivery during in-kernel work"
      ~columns:
        [ ("mechanism", Tablefmt.Left);
          ("mean latency", Tablefmt.Right);
          ("p99 latency", Tablefmt.Right);
          ("wasted cycles", Tablefmt.Right);
          ("makespan", Tablefmt.Right) ]
  in
  let row name (latency, wasted, makespan) =
    Tablefmt.add_row t
      [ name;
        Tablefmt.cell_float (Histogram.mean latency);
        string_of_int (Histogram.percentile latency 99.0);
        string_of_int wasted;
        string_of_int makespan ]
  in
  row "signal (unwind+restart)" (signals_run ~quick ~seed);
  row "channel (peer fiber)" (channel_run ~quick ~seed);
  row "polling between syscalls" (polling_run ~quick ~seed);
  [ t ]
