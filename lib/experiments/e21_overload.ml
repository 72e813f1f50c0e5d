(* E21 — overload at the service plane (Sections 3 and 5).

   Every server in the paper's design is a message loop behind a
   queue, and queues fill.  Once offered load passes the service rate
   something must give: the sender blocks (backpressure propagates
   upstream), the server answers "busy" (the client sees the overload
   and can back off), or the server sheds its stalest queued work
   (freshest-first under pressure).  lib/svc makes the three policies
   a one-line configuration on the same endpoint; this experiment
   sweeps offered load from half capacity to 2x past it and measures
   what each policy trades away: goodput, tail latency, or both.

   The generator is open-loop: eight dispatchers emit requests on a
   fixed schedule regardless of completions, each request carried by
   its own small fiber so a blocked send stalls only that request.
   Everything is deterministic in (seed, scale) — no RNG is drawn. *)

open Exp_common
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Svc = Chorus_svc.Svc

type sample = {
  policy_name : string;
  load_pct : int;
  sent : int;
  completed : int;
  busy : int;  (* rejected at the door + shed after admission *)
  rejected : int;
  shed : int;
  hwm : int;
  p50 : int;
  p99 : int;
  goodput : float;  (* completed requests per Mcycle *)
}

let policy_name = function
  | `Block -> "block"
  | `Reject -> "reject"
  | `Shed_oldest -> "shed-oldest"

(* One (policy, load) posture: a single-server endpoint with a
   capacity-16 inbox, service time [service_cost] cycles, and an
   aggregate arrival rate of [load_pct]% of the service rate. *)
let measure ~quick ~seed ~policy ~load_pct =
  let service_cost = 8_000 in
  let capacity = 16 in
  let nclients = 8 in
  let per_client = pick ~quick 40 150 in
  let total = nclients * per_client in
  (* per-dispatcher gap so that nclients/gap = load_pct% of
     1/service_cost *)
  let gap = nclients * service_cost * 100 / load_pct in
  let (completed, busy, rejected, shed, hwm, p50, p99), stats =
    run ~seed ~cores:16 (fun () ->
        let ep =
          Svc.create
            ~config:(Svc.config ~capacity ~policy ())
            ~subsystem:"svc" ~label:"e21-server" ()
        in
        let server = Svc.start ep (fun () -> Fiber.work service_cost) in
        let lat = Histogram.create () in
        let completed = ref 0 and busy = ref 0 in
        let finished = Chan.unbounded ~label:"finished" () in
        for c = 0 to nclients - 1 do
          ignore
            (Fiber.spawn ~daemon:true
               ~label:(Printf.sprintf "dispatch-%d" c)
               (fun () ->
                 (* stagger the dispatchers across one gap so arrivals
                    interleave instead of bursting 8-wide *)
                 Fiber.sleep (c * (gap / nclients));
                 for _i = 0 to per_client - 1 do
                   let t0 = Fiber.now () in
                   ignore
                     (Fiber.spawn ~daemon:true ~label:"request"
                        (fun () ->
                          (match Svc.call_result ep () with
                          | `Ok () ->
                              incr completed;
                              Histogram.record lat (Fiber.now () - t0)
                          | `Busy -> incr busy);
                          Chan.send finished ()));
                   Fiber.sleep gap
                 done))
        done;
        for _ = 1 to total do
          ignore (Chan.recv finished)
        done;
        Fiber.kill server;
        ( !completed,
          !busy,
          Svc.rejected ep,
          Svc.shed ep,
          Svc.hwm ep,
          Histogram.percentile lat 50.0,
          Histogram.percentile lat 99.0 ))
  in
  { policy_name = policy_name policy;
    load_pct;
    sent = total;
    completed;
    busy;
    rejected;
    shed;
    hwm;
    p50;
    p99;
    goodput = Runstats.throughput stats ~ops:completed }

(* The table's rows, which BENCH_overload.json also holds: each policy
   at 50, 100 and 200% load. *)
let samples ~quick ~seed =
  List.concat_map
    (fun policy ->
      List.map
        (fun load_pct -> measure ~quick ~seed ~policy ~load_pct)
        [ 50; 100; 200 ])
    [ `Block; `Reject; `Shed_oldest ]

let run ~quick ~seed =
  let table =
    Tablefmt.create
      ~title:
        "E21: one server, capacity-16 inbox, open-loop load sweep \
         (8 clients)"
      ~columns:
        [ ("policy", Tablefmt.Left);
          ("load", Tablefmt.Right);
          ("sent", Tablefmt.Right);
          ("completed", Tablefmt.Right);
          ("busy", Tablefmt.Right);
          ("rejected", Tablefmt.Right);
          ("shed", Tablefmt.Right);
          ("queue hwm", Tablefmt.Right);
          ("p50 (cycles)", Tablefmt.Right);
          ("p99 (cycles)", Tablefmt.Right);
          ("goodput/Mcyc", Tablefmt.Right) ]
  in
  List.iter
    (fun s ->
      Tablefmt.add_row table
        [ s.policy_name;
          Printf.sprintf "%d%%" s.load_pct;
          string_of_int s.sent;
          string_of_int s.completed;
          string_of_int s.busy;
          string_of_int s.rejected;
          string_of_int s.shed;
          string_of_int s.hwm;
          string_of_int s.p50;
          string_of_int s.p99;
          Tablefmt.cell_float s.goodput ])
    (samples ~quick ~seed);
  [ table ]
