(* E19 — scheduling the kernel's own threads (Section 5).

   Once drivers and services are ordinary threads, they compete with
   application work for cores — a difficulty the paper's "new range of
   difficulties" umbrella covers.  Here a compute-heavy application
   floods every core while a client performs disk reads.  The
   blockdev driver and bcache shards run either at normal priority
   (they queue behind the batch work on every wake-up) or at high
   priority (they jump the run queue, like an interrupt context).

   Measured: disk-read latency seen by the client (the batch hogs run
   for as long as the reader does, so the run makespan tracks the
   reader's completion). *)

open Exp_common
module Fiber = Chorus.Fiber
module Histogram = Chorus_util.Histogram
module Blockdev = Chorus_kernel.Blockdev

let cores = 8

let run_one ~quick ~seed ~priority =
  let reads = pick ~quick 100 600 in
  let latency = Histogram.create () in
  let (), stats =
    run ~seed ~cores (fun () ->
        let dev = Blockdev.start ~priority () in
        (* background batch load: several runnable fibers per core, so
           every wake-up finds a queue to stand in (or jump) *)
        let stop = ref false in
        let hogs =
          List.init (cores * 4) (fun i ->
              Fiber.spawn ~on:(i mod cores) ~label:"hog" (fun () ->
                  while not !stop do
                    Fiber.work 8_000;
                    Fiber.yield ()
                  done))
        in
        let client =
          Fiber.spawn ~on:0 ~priority ~label:"reader" (fun () ->
              for i = 1 to reads do
                let t0 = Fiber.now () in
                ignore (Blockdev.read dev (i * 7));
                Histogram.record latency (Fiber.now () - t0)
              done)
        in
        ignore (Fiber.join client);
        stop := true;
        List.iter (fun f -> ignore (Fiber.join f)) hogs)
  in
  (latency, stats)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E19: disk-read latency under an 8-core compute flood, by \
         service priority"
      ~columns:
        [ ("service priority", Tablefmt.Left);
          ("read mean", Tablefmt.Right);
          ("read p99", Tablefmt.Right);
          ("makespan", Tablefmt.Right) ]
  in
  List.iter
    (fun (name, priority) ->
      let latency, stats = run_one ~quick ~seed ~priority in
      Tablefmt.add_row t
        [ name;
          Tablefmt.cell_float (Histogram.mean latency);
          string_of_int (Histogram.percentile latency 99.0);
          string_of_int stats.Runstats.makespan ])
    [ ("normal (queue behind batch)", Fiber.Normal);
      ("high (interrupt-style)", Fiber.High) ];
  [ t ]
