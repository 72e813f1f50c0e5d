(* The committed benchmark files.

   Each writer regenerates one BENCH_<name>.json in the current
   directory from seeded simulator runs, so every field is a pure
   function of the seed and scripts/bench_guard compares the files byte
   for byte.  Host speed is measured by perfbench, not here.

   Usage: main.exe [--<name>-only], where --<name>-only writes just
   BENCH_<name>.json; with no flag, all six files are written. *)

(* section header on stdout *)
let banner title =
  print_endline "\n=====================================================";
  print_endline (" " ^ title);
  print_endline "=====================================================\n"

(* a BENCH file's opening: its schema and the seed every number in it
   derives from *)
let json_doc schema ~seed =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n  \"schema\": \"chorus-bench-%s\",\n  \"seed\": %d,\n"
    schema seed;
  b

(* write a finished JSON buffer and say so *)
let save file b =
  Out_channel.with_open_text file (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "\nwrote %s\n" file

(* a campaign report's simulator-side fields, client_ops through
   campaign_digest, one per line [indent] deep; the caller ends the
   digest line *)
let add_campaign b ~indent (r : Chorus_chaos.Chaos.report) =
  Printf.bprintf b "%s\"client_ops\": %d,\n" indent r.total_ops;
  Printf.bprintf b "%s\"faults_injected\": %d,\n" indent r.faults_injected;
  Printf.bprintf b "%s\"faults_explored\": {" indent;
  List.iteri
    (fun i (kind, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n%s  \"%s\": %d" indent kind n)
    r.kinds;
  Printf.bprintf b "\n%s},\n" indent;
  Printf.bprintf b "%s\"oracle_violations\": %d,\n" indent
    (List.length r.violations);
  Printf.bprintf b "%s\"campaign_digest\": \"%s\"" indent r.campaign_digest

(* ------------------------------------------------------------------ *)
(* E3 file-server scaling                                              *)

(* The headline number: E3's full 1..1024-core sweep, file-server
   ops/Mcycle on the message kernel and on the lock kernel. *)
let write_e3_json file =
  let module E3 = Chorus_experiments.E03_scaling in
  banner "E3: file-server scaling (virtual)";
  let seed = 42 in
  let rows =
    List.map
      (fun cores ->
        let msg = E3.msg_throughput ~quick:false ~seed cores in
        let lock = E3.lock_throughput ~quick:false ~seed cores in
        Printf.printf "cores %4d  msg %9.2f  lock %8.2f ops/Mcycle\n" cores
          msg lock;
        (cores, msg, lock))
      (Chorus_experiments.Exp_common.core_sweep ~quick:false)
  in
  let b = json_doc "e3-v1" ~seed in
  Buffer.add_string b "  \"sweep\": [";
  List.iteri
    (fun i (cores, msg, lock) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n    { \"cores\": %d, \"msg_ops_per_mcycle\": %.2f, \
         \"lock_ops_per_mcycle\": %.2f }"
        cores msg lock)
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Cluster macro-benchmark                                             *)

(* Steady-state put cost and the data-plane failover window as the
   replica group widens, plus the E24 hot-path curves (throughput/p99
   vs offered load per posture, and the batched-vs-plain write path at
   saturation), in virtual cycles (so the numbers are exact and
   reproducible, not host-dependent).  Reuses the E20/E24 drivers. *)
let write_cluster_json file =
  let module E20 = Chorus_experiments.E20_cluster in
  let module E24 = Chorus_experiments.E24_hotpath in
  banner "Cluster: throughput and failover window (virtual)";
  let rows =
    List.map
      (fun nnodes ->
        let window, tput_cycles, acked, ops =
          E20.run_failover ~quick:true ~seed:42 ~nnodes
        in
        let per_put = tput_cycles / max 1 ops in
        Printf.printf
          "N=%d  acked %d/%d  cycles/put %d  failover window %s\n" nnodes
          acked ops per_put
          (if window = 0 then "n/a" else string_of_int window);
        (nnodes, window, per_put, acked, ops))
      [ 1; 3; 5 ]
  in
  print_endline "\nhot path: offered-load sweep (3 replicas, 90% reads)";
  let sweep =
    List.concat_map
      (fun offered ->
        List.map
          (fun (batched, leased) ->
            let p =
              E24.run_point ~quick:true ~seed:42 ~replicas:3 ~batched
                ~leased ~offered ~read_fraction:0.9 ()
            in
            Printf.printf
              "  offered %4d  batched=%b leased=%b  tput %.0f  p99 %d\n"
              offered batched leased p.E24.throughput p.E24.p99;
            p)
          [ (false, false); (true, false); (false, true); (true, true) ])
      [ 300; 1200 ]
  in
  print_endline "\nhot path: write-only at saturation (slow fabric)";
  let writes =
    List.concat_map
      (fun replicas ->
        List.map
          (fun batched ->
            let p =
              E24.run_point ~quick:true ~seed:42 ~replicas ~batched
                ~leased:false ~offered:16_000 ~read_fraction:0.0
                ~nclients:24 ~depth:16 ~duration:600_000
                ~call_timeout:800_000 ~propose_timeout:600_000
                ~fabric_latency:20_000 ()
            in
            Printf.printf "  replicas %d  batched=%b  cycles/put %d\n"
              replicas batched p.E24.cycles_per_op;
            p)
          [ false; true ])
      [ 1; 3; 5 ]
  in
  let b = json_doc "cluster-v2" ~seed:42 in
  Buffer.add_string b "  \"replica_groups\": [";
  List.iteri
    (fun i (n, window, per_put, acked, ops) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"nodes\": %d, \"puts_acked\": %d, \"puts_issued\": %d, \
            \"cycles_per_put\": %d, \"failover_window_cycles\": %s }"
           n acked ops per_put
           (if window = 0 then "null" else string_of_int window)))
    rows;
  Buffer.add_string b "\n  ],\n";
  let point_json (p : E24.point) =
    Printf.sprintf
      "\n    { \"offered_per_mcycle\": %d, \"replicas\": %d, \
       \"batched\": %b, \"leased\": %b, \"completed\": %d, \
       \"failed\": %d, \"throughput_per_mcycle\": %.1f, \
       \"cycles_per_op\": %d, \"p50_cycles\": %d, \"p99_cycles\": %d, \
       \"put_p99_cycles\": %d, \"appends\": %d, \"group_commits\": %d, \
       \"leased_reads\": %d }"
      p.E24.offered p.E24.replicas p.E24.batched p.E24.leased
      p.E24.completed p.E24.failed p.E24.throughput p.E24.cycles_per_op
      p.E24.p50 p.E24.p99 p.E24.put_p99 p.E24.appends p.E24.group_commits
      p.E24.leased_reads
  in
  let add_points name points =
    Buffer.add_string b (Printf.sprintf "  \"%s\": [" name);
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (point_json p))
      points;
    Buffer.add_string b "\n  ]"
  in
  add_points "hot_path_sweep" sweep;
  Buffer.add_string b ",\n";
  add_points "write_path_saturation" writes;
  Buffer.add_string b "\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Service-plane overload macro-benchmark                              *)

(* Goodput and tail latency for each overload policy as offered load
   sweeps past the service rate, in virtual cycles.  Reuses the E21
   driver. *)
let write_overload_json file =
  let module E21 = Chorus_experiments.E21_overload in
  banner "Service plane: overload policies (virtual)";
  let rows =
    List.concat_map
      (fun policy ->
        List.map
          (fun load_pct ->
            let s = E21.measure ~quick:true ~seed:42 ~policy ~load_pct in
            Printf.printf
              "%-12s %3d%%  completed %d/%d  busy %d  p99 %d  \
               goodput/Mcyc %.1f\n"
              s.E21.policy_name load_pct s.E21.completed s.E21.sent
              s.E21.busy s.E21.p99 s.E21.goodput;
            s)
          [ 50; 100; 200 ])
      [ `Block; `Reject; `Shed_oldest ]
  in
  let b = json_doc "overload-v1" ~seed:42 in
  Buffer.add_string b "  \"postures\": [";
  List.iteri
    (fun i (s : Chorus_experiments.E21_overload.sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"policy\": \"%s\", \"load_pct\": %d, \"sent\": %d, \
            \"completed\": %d, \"busy\": %d, \"rejected\": %d, \
            \"shed\": %d, \"queue_hwm\": %d, \"p50_cycles\": %d, \
            \"p99_cycles\": %d, \"goodput_per_mcycle\": %.2f }"
           s.policy_name s.load_pct s.sent s.completed s.busy s.rejected
           s.shed s.hwm s.p50 s.p99 s.goodput))
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Chaos campaign                                                      *)

(* The full fault-space campaign at the acceptance scale, plus the
   oracle selftest.  Every field is a pure function of the seed;
   oracle_violations is the headline number and must be 0. *)
let write_chaos_json file =
  let module Chaos = Chorus_chaos.Chaos in
  banner "Chaos: fault-space campaign with oracles";
  let disk_runs = 160 and kv_runs = 48 and seed = 42 in
  let r =
    Chaos.campaign ~seed [ (Chaos.Disk, disk_runs); (Chaos.Kv, kv_runs) ]
  in
  let st = Chaos.selftest ~seed in
  Printf.printf "runs %d  ops %d  injected %d  violations %d\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations);
  Printf.printf "selftest: caught %b, shrunk to %d faults, replay %b\n"
    st.Chaos.caught st.Chaos.minimal_faults st.Chaos.st_replay_identical;
  let b = json_doc "chaos-v1" ~seed in
  Buffer.add_string b
    (Printf.sprintf "  \"disk_runs\": %d,\n  \"kv_runs\": %d,\n" disk_runs
       kv_runs);
  Buffer.add_string b (Printf.sprintf "  \"runs\": %d,\n" r.Chaos.runs);
  add_campaign b ~indent:"  " r;
  Buffer.add_string b ",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"selftest\": { \"caught\": %b, \"minimal_faults\": %d, \
        \"replay_identical\": %b }\n"
       st.Chaos.caught st.Chaos.minimal_faults st.Chaos.st_replay_identical);
  Buffer.add_string b "}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Projected filesystem                                                *)

(* Cold vs warm open+read over the projection, the hydration-storm
   sweep across overload policies (reusing the E23 drivers), and a
   small provider-kill chaos campaign whose headline number — oracle
   violations, the placeholder invariant's among them — must be 0, and
   whose campaign digest pins every run.  Every field is in virtual
   cycles and a pure function of the seed, so the guard can require
   this file to reproduce byte-identically. *)
let write_vfs_json file =
  let module E23 = Chorus_experiments.E23_projfs in
  let module Chaos = Chorus_chaos.Chaos in
  banner "Projected FS: hydration, storms (virtual)";
  let o = E23.measure_open ~quick:true ~seed:42 in
  Printf.printf
    "open: %d files  cold p50 %d p99 %d  warm p50 %d p99 %d  hydrations %d\n"
    o.E23.files o.E23.cold_p50 o.E23.cold_p99 o.E23.warm_p50 o.E23.warm_p99
    o.E23.hydrations;
  let storms =
    List.map
      (fun policy ->
        let s = E23.measure_storm ~quick:true ~seed:42 ~policy in
        Printf.printf
          "%-12s readers %d  completed %d  failed %d  p99 %d  \
           goodput/Mcyc %.1f\n"
          s.E23.policy_name s.E23.clients s.E23.completed s.E23.failed
          s.E23.p99 s.E23.goodput;
        s)
      [ `Block; `Reject; `Shed_oldest ]
  in
  let projfs_runs = 12 and seed = 42 in
  let r = Chaos.campaign ~seed [ (Chaos.Projfs, projfs_runs) ] in
  Printf.printf
    "chaos: %d provider-kill runs  ops %d  injected %d  violations %d\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations);
  let b = json_doc "vfs-v3" ~seed:42 in
  Buffer.add_string b
    (Printf.sprintf
       "  \"open\": { \"files\": %d, \"cold_p50_cycles\": %d, \
        \"cold_p99_cycles\": %d, \"warm_p50_cycles\": %d, \
        \"warm_p99_cycles\": %d, \"hydrations\": %d },\n"
       o.E23.files o.E23.cold_p50 o.E23.cold_p99 o.E23.warm_p50
       o.E23.warm_p99 o.E23.hydrations);
  Buffer.add_string b "  \"storm\": [";
  List.iteri
    (fun i (s : Chorus_experiments.E23_projfs.storm_sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"policy\": \"%s\", \"readers\": %d, \"capacity\": %d, \
            \"completed\": %d, \"failed\": %d, \"rejected\": %d, \
            \"shed\": %d, \"queue_hwm\": %d, \"p99_cycles\": %d, \
            \"makespan_cycles\": %d, \"goodput_per_mcycle\": %.2f }"
           s.E23.policy_name s.E23.clients s.E23.capacity s.E23.completed
           s.E23.failed s.E23.rejected s.E23.shed s.E23.hwm s.E23.p99
           s.E23.makespan s.E23.goodput))
    storms;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"chaos\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"projfs_runs\": %d,\n" projfs_runs);
  add_campaign b ~indent:"    " r;
  Buffer.add_string b "\n  }\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Gray failure                                                        *)

(* The E25 posture grid (healthy fabric + gray node, four client
   postures each) plus the gray chaos campaign at acceptance scale.
   The headline numbers: breakers+deadlines p99 under the gray node
   must undercut baseline's, and the campaign's oracle violations must
   be 0.  Everything is a pure function of the seed. *)
let write_gray_json file =
  let module E25 = Chorus_experiments.E25_gray in
  let module Chaos = Chorus_chaos.Chaos in
  banner "Gray failure: breakers, deadlines, liveness oracle";
  let points =
    List.concat_map
      (fun gray ->
        List.map
          (fun (breakers, deadlines) ->
            let p =
              E25.run_point ~quick:true ~seed:42 ~gray ~breakers
                ~deadlines ()
            in
            Printf.printf
              "  gray=%-5b %-18s  done %d  fail %d  p99 %d  max %d  \
               misses %d  trips %d\n"
              gray
              (E25.posture_name ~breakers ~deadlines)
              p.E25.completed p.E25.failed p.E25.p99 p.E25.pmax
              p.E25.misses p.E25.trips;
            p)
          [ (false, false); (false, true); (true, false); (true, true) ])
      [ false; true ]
  in
  let gray_runs = 50 and seed = 42 in
  let r = Chaos.campaign ~seed [ (Chaos.Gray, gray_runs) ] in
  Printf.printf "\nchaos: %d gray runs  ops %d  injected %d  violations %d\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations);
  if r.Chaos.violations <> [] then begin
    List.iter
      (fun v -> Printf.eprintf "VIOLATION: %s\n" v.Chaos.first)
      r.Chaos.violations;
    Printf.eprintf "FATAL: gray campaign must pass every oracle\n";
    exit 1
  end;
  let b = json_doc "gray-v1" ~seed:42 in
  Buffer.add_string b "  \"postures\": [";
  List.iteri
    (fun i (p : E25.point) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"gray\": %b, \"breakers\": %b, \"deadlines\": %b, \
            \"completed\": %d, \"failed\": %d, \"p50_cycles\": %d, \
            \"p99_cycles\": %d, \"max_cycles\": %d, \
            \"deadline_misses\": %d, \"breaker_trips\": %d, \
            \"breaker_skips\": %d, \"link_delayed\": %d }"
           p.E25.gray p.E25.breakers p.E25.deadlines p.E25.completed
           p.E25.failed p.E25.p50 p.E25.p99 p.E25.pmax p.E25.misses
           p.E25.trips p.E25.skips p.E25.link_delayed))
    points;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"chaos\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"gray_runs\": %d,\n" gray_runs);
  add_campaign b ~indent:"    " r;
  Buffer.add_string b "\n  }\n}\n";
  save file b

let () =
  let args = Array.to_list Sys.argv in
  (* one writer per BENCH_<name>.json, selected by --<name>-only *)
  let writers =
    [ ("e3", write_e3_json);
      ("cluster", write_cluster_json);
      ("overload", write_overload_json);
      ("chaos", write_chaos_json);
      ("vfs", write_vfs_json);
      ("gray", write_gray_json) ]
  in
  let write (name, writer) = writer ("BENCH_" ^ name ^ ".json") in
  match
    List.find_opt
      (fun (name, _) -> List.mem ("--" ^ name ^ "-only") args)
      writers
  with
  | Some w -> write w
  | None -> List.iter write writers
