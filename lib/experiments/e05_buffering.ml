(* E5 — blocking vs non-blocking send (Section 3): "Blocking send is
   easier to implement in a low-level environment (no buffering) and is
   more powerful; however, non-blocking send tends to be easier to use
   and, being less synchronous, is probably faster."

   A 4-stage pipeline is run with inter-stage channel capacity swept
   from 0 (rendezvous) upward, at two placements (neighbouring cores vs
   policy-spread on a 64-core mesh).  Throughput should rise with
   capacity and saturate; per-item latency tells the other side of the
   story. *)

open Exp_common
module Pipeline = Chorus_workload.Pipeline
module Histogram = Chorus_util.Histogram

let capacities = [ 0; 1; 4; 16; 64 ]

let run_one ~quick ~seed capacity =
  let cfg =
    { Pipeline.default_config with
      capacity;
      items = pick ~quick 500 4_000;
      stages = 4;
      work_per_stage = 250 }
  in
  let result, stats = run ~seed ~cores:64 (fun () -> Pipeline.run cfg) in
  let tput = Runstats.throughput stats ~ops:cfg.Pipeline.items in
  (tput, Histogram.mean result.Pipeline.item_latency,
   Histogram.percentile result.Pipeline.item_latency 99.0)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E5: pipeline vs channel capacity (0 = rendezvous/blocking send)"
      ~columns:
        [ ("capacity", Tablefmt.Right);
          ("items/Mcyc", Tablefmt.Right);
          ("mean latency", Tablefmt.Right);
          ("p99 latency", Tablefmt.Right) ]
  in
  List.iter
    (fun cap ->
      let tput, mean, p99 = run_one ~quick ~seed cap in
      Tablefmt.add_row t
        [ string_of_int cap;
          Tablefmt.cell_float tput;
          Tablefmt.cell_float mean;
          string_of_int p99 ])
    capacities;
  [ t ]
