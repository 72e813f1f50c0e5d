(* Command-line driver: run any experiment at any scale/seed, list the
   catalogue, or dump CSV for plotting. *)

module Experiments = Chorus_experiments.Experiments
module Tablefmt = Chorus_util.Tablefmt

open Cmdliner

let list_cmd =
  let doc = "List all experiments and the paper claims they test." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %-32s %s\n" e.Experiments.id e.Experiments.title
          e.Experiments.claim)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let ids_range =
  (* derived from the catalogue so it can't go stale *)
  match Experiments.all with
  | [] -> "none"
  | first :: rest ->
    let last =
      List.fold_left (fun _ e -> e.Experiments.id) first.Experiments.id rest
    in
    Printf.sprintf "%s..%s" first.Experiments.id last

let ids_arg =
  let doc = Printf.sprintf "Experiment ids (%s), or 'all'." ids_range in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID" ~doc)

let full_arg =
  let doc = "Full-scale runs (slower, bigger sweeps); default is quick." in
  Arg.(value & flag & info [ "full" ] ~doc)

let seed_arg =
  let doc = "Master random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Directory to also dump one CSV per table into." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let domains_arg =
  let doc =
    "Shard independent runs across N host domains (0 = auto-detect). \
     Results are merged in deterministic order, so every \
     simulator-side number is byte-identical at any domain count; \
     only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let resolve_domains n =
  if n < 0 then begin
    Printf.eprintf "--domains must be >= 0\n";
    exit 2
  end
  else if n = 0 then Chorus_par.Pool.recommended ()
  else n

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

let run_cmd =
  let doc = "Run experiments and print their tables." in
  let run ids full seed csv domains =
    let selected =
      if List.mem "all" ids then Experiments.all
      else
        List.map
          (fun id ->
            match Experiments.find id with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S (try 'list')\n" id;
              exit 2)
          ids
    in
    let domains = resolve_domains domains in
    let quick = not full in
    (* experiments compute tables silently, so sharding them across
       domains and printing in catalogue order afterwards emits
       byte-identical output to the sequential path *)
    let results =
      Chorus_par.Pool.map ~domains selected (fun e ->
          e.Experiments.run ~quick ~seed)
    in
    List.iter2
      (fun e tables ->
        Printf.printf "--- %s: %s ---\nclaim: %s\n%!"
          (String.uppercase_ascii e.Experiments.id)
          e.Experiments.title e.Experiments.claim;
        List.iter
          (fun t ->
            Tablefmt.print t;
            match csv with
            | None -> ()
            | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let file =
                Filename.concat dir
                  (Printf.sprintf "%s_%s.csv" e.Experiments.id
                     (sanitize (Tablefmt.title t)))
              in
              let oc = open_out file in
              output_string oc (Tablefmt.to_csv t);
              close_out oc)
          tables)
      selected results
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ ids_arg $ full_arg $ seed_arg $ csv_arg $ domains_arg)

(* --------------------------------------------------------------- *)
(* shared bits: --json rendering via the Inspect value type          *)

let json_arg =
  let doc = "Emit one JSON object instead of tables (jq-composable)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let ring_arg =
  Arg.(
    value & opt int 200_000
    & info [ "ring" ]
        ~doc:
          "Trace ring capacity: most recent records kept per run; the \
           count of dropped older records is always reported.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Also export the trace as Chrome trace-event JSON (open in \
           about://tracing or ui.perfetto.dev).")

let value_of_record (r : Chorus.Trace.record) =
  let module Trace = Chorus.Trace in
  let open Chorus.Inspect in
  let ev, fields =
    match r.Trace.event with
    | Trace.Spawn { child; on_core } ->
      ("spawn", [ ("child", Int child); ("on_core", Int on_core) ])
    | Trace.Exit { status } -> ("exit", [ ("status", String status) ])
    | Trace.Block { on } -> ("block", [ ("on", String on) ])
    | Trace.Wake -> ("wake", [])
    | Trace.Send { chan; words; src; dst } ->
      ( "send",
        [ ("chan", Int chan); ("words", Int words); ("src", Int src);
          ("dst", Int dst) ] )
    | Trace.Recv { chan } -> ("recv", [ ("chan", Int chan) ])
    | Trace.Steal { victim_core; fiber } ->
      ("steal", [ ("victim_core", Int victim_core); ("stolen", Int fiber) ])
    | Trace.Span_begin { subsystem; span } ->
      ("span_begin", [ ("subsystem", String subsystem); ("span", String span) ])
    | Trace.Span_end { subsystem; span } ->
      ("span_end", [ ("subsystem", String subsystem); ("span", String span) ])
    | Trace.Segment { start; label } ->
      ("segment", [ ("start", Int start); ("label", String label) ])
    | Trace.Custom s -> ("custom", [ ("note", String s) ])
  in
  Assoc
    ([ ("time", Int r.Trace.time); ("core", Int r.Trace.core);
       ("fiber", Int r.Trace.fiber); ("event", String ev) ]
    @ fields)

(* --------------------------------------------------------------- *)
(* trace: watch the kernel do one file operation, event by event     *)

let trace_cmd =
  let doc =
    "Boot the kernel, perform one file write+read, and dump the \
     scheduler/channel trace."
  in
  let limit_arg =
    Arg.(value & opt int 80 & info [ "limit" ] ~doc:"Max records to print.")
  in
  let go limit capacity json chrome =
    let module Machine = Chorus_machine.Machine in
    let module Runtime = Chorus.Runtime in
    let module Trace = Chorus.Trace in
    let module Kernel = Chorus_kernel.Kernel in
    let module Msgvfs = Chorus_kernel.Msgvfs in
    let sink, get, dropped = Trace.ring ~capacity () in
    let stats =
      Runtime.run
        (Runtime.config ~trace:sink ~seed:1 (Machine.mesh ~cores:8))
        (fun () ->
          let kern = Kernel.boot Kernel.default_config in
          let fs = Kernel.fs_client kern in
          ignore (Msgvfs.mkdir fs "/tmp");
          ignore (Msgvfs.create fs "/tmp/hello");
          match Msgvfs.open_ fs "/tmp/hello" with
          | Ok fd ->
            ignore (Msgvfs.write fs fd ~off:0 "traced!");
            ignore (Msgvfs.read fs fd ~off:0 ~len:7)
          | Error _ -> ())
    in
    let records = get () in
    let dropped = dropped () in
    if json then
      print_endline
        (Chorus.Inspect.to_json
           (Chorus.Inspect.Assoc
              [ ("records",
                 Chorus.Inspect.List (List.map value_of_record records));
                ("dropped", Chorus.Inspect.Int dropped);
                ("makespan",
                 Chorus.Inspect.Int stats.Chorus.Runstats.makespan);
                ("msgs", Chorus.Inspect.Int stats.Chorus.Runstats.msgs);
                ("spawns", Chorus.Inspect.Int stats.Chorus.Runstats.spawns) ]))
    else begin
      Printf.printf
        "mkdir + create + open + write + read through the message kernel\n\
         (%d trace records retained%s; showing the first %d)\n\n"
        (List.length records)
        (if dropped > 0 then
           Printf.sprintf ", %d dropped by the ring (raise --ring)" dropped
         else "")
        limit;
      List.iteri
        (fun i r ->
          if i < limit then
            Format.printf "%a@." Trace.pp_record r)
        records;
      Printf.printf "\n%d virtual cycles, %d messages, %d fibers spawned\n"
        stats.Chorus.Runstats.makespan stats.Chorus.Runstats.msgs
        stats.Chorus.Runstats.spawns
    end;
    match chrome with
    | None -> ()
    | Some file ->
      Chorus_obs.Chrome_trace.write_file file records;
      if not json then
        Printf.printf "wrote %d records to %s (Chrome trace-event JSON)\n"
          (List.length records) file
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const go $ limit_arg $ ring_arg $ json_arg $ chrome_arg)

(* --------------------------------------------------------------- *)
(* profile: run one experiment with metrics + tracing switched on     *)

let profile_cmd =
  let doc =
    "Run one experiment with the observability layer on and print \
     per-service latency, the busiest fibers, the fibers that waited \
     longest for their core, the last fibers to exit, and the \
     core-to-core message matrix."
  in
  let module Metrics = Chorus_obs.Metrics in
  let module Profile = Chorus_obs.Profile in
  let module Trace = Chorus.Trace in
  let module Runtime = Chorus.Runtime in
  let id_arg =
    let doc = Printf.sprintf "Experiment id (%s)." ids_range in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let pct cycles total =
    if total <= 0 then "-"
    else Printf.sprintf "%.1f%%" (100. *. float cycles /. float total)
  in
  let go id full seed capacity json chrome =
    match Experiments.find id with
    | None ->
      Printf.eprintf "unknown experiment %S (try 'list')\n" id;
      exit 2
    | Some e ->
      (* Metrics accumulate across every run the experiment performs;
         the trace-derived profile uses the longest single run (the
         experiment's headline configuration is typically its biggest). *)
      let reg = Metrics.create () in
      Metrics.install reg;
      let rings : ((unit -> Trace.record list) * (unit -> int)) list ref =
        ref []
      in
      Runtime.set_default_trace
        (Some
           (fun () ->
             let sink, get, dropped = Trace.ring ~capacity () in
             rings := (get, dropped) :: !rings;
             sink));
      if not json then
        Printf.printf "--- profiling %s: %s ---\nclaim: %s\n%!"
          (String.uppercase_ascii e.Experiments.id)
          e.Experiments.title e.Experiments.claim;
      let _tables = e.Experiments.run ~quick:(not full) ~seed in
      Runtime.set_default_trace None;
      Metrics.uninstall ();
      let snap = Metrics.snapshot reg in
      (* the longest run's trace: (records, record count, ring drops) *)
      let best =
        List.fold_left
          (fun acc (get, dropped) ->
            let records = get () in
            let n = List.length records in
            match acc with
            | Some (_, bn, _) when bn >= n -> acc
            | _ -> Some (records, n, dropped ()))
          None !rings
      in
      if json then begin
        let open Chorus.Inspect in
        let fibers, messages, dropped, nrecords =
          match best with
          | None -> ([], 0, 0, 0)
          | Some (records, n, dropped) ->
            let p = Profile.of_records records in
            let fibers =
              List.map
                (fun f ->
                  Assoc
                    [ ("fid", Int f.Profile.fid);
                      ("label", String f.Profile.label);
                      ("core", Int f.Profile.core);
                      ("spawned", Int f.Profile.spawned);
                      ("exited", Int f.Profile.exited);
                      ("busy", Int f.Profile.busy);
                      ("waited", Int f.Profile.waited);
                      ("blocked", Int f.Profile.blocked);
                      ("sent", Int f.Profile.sent);
                      ("recvd", Int f.Profile.received) ])
                p.Profile.fibers
            in
            (fibers, Profile.messages p, dropped, n)
        in
        print_endline
          (to_json
             (Assoc
                [ ("experiment", String e.Experiments.id);
                  ("metrics", Chorus_debug.Snapshot.value_of_metrics snap);
                  ("trace",
                   Assoc
                     [ ("runs", Int (List.length !rings));
                       ("records", Int nrecords); ("dropped", Int dropped) ]);
                  ("messages", Int messages);
                  ("fibers", List fibers) ]));
        exit 0
      end;
      let lat =
        Tablefmt.create ~title:"service latency (virtual cycles)"
          ~columns:
            [ ("service", Tablefmt.Left); ("metric", Tablefmt.Left);
              ("count", Tablefmt.Right); ("mean", Tablefmt.Right);
              ("p50", Tablefmt.Right); ("p95", Tablefmt.Right);
              ("p99", Tablefmt.Right); ("max", Tablefmt.Right) ]
      in
      let other =
        Tablefmt.create ~title:"counters and gauges"
          ~columns:
            [ ("service", Tablefmt.Left); ("metric", Tablefmt.Left);
              ("kind", Tablefmt.Left); ("value", Tablefmt.Right);
              ("peak", Tablefmt.Right); ("mean", Tablefmt.Right) ]
      in
      List.iter
        (fun ((sub, name), v) ->
          match v with
          | Metrics.Histo { count; mean; p50; p95; p99; max } ->
            Tablefmt.add_row lat
              [ sub; name; Tablefmt.cell_int count; Tablefmt.cell_float mean;
                Tablefmt.cell_int p50; Tablefmt.cell_int p95;
                Tablefmt.cell_int p99; Tablefmt.cell_int max ]
          | Metrics.Counter n ->
            Tablefmt.add_row other
              [ sub; name; "counter"; Tablefmt.cell_int n; "-"; "-" ]
          | Metrics.Gauge { last; peak; mean } ->
            Tablefmt.add_row other
              [ sub; name; "gauge"; Tablefmt.cell_int last;
                Tablefmt.cell_int peak; Tablefmt.cell_float mean ])
        snap;
      Tablefmt.print lat;
      Tablefmt.print other;
      (match best with
      | None -> Printf.printf "(no run produced trace records)\n"
      | Some (records, n, dropped) ->
        Printf.printf "trace profile: longest of %d runs, %d records%s\n\n"
          (List.length !rings) n
          (if dropped > 0 then
             Printf.sprintf " (ring dropped %d oldest; raise --ring)" dropped
           else "");
        let p = Profile.of_records records in
        let busy_total =
          List.fold_left (fun a f -> a + f.Profile.busy) 0 p.Profile.fibers
        in
        let busy =
          Tablefmt.create ~title:"top fibers by busy time"
            ~columns:
              [ ("fiber", Tablefmt.Right); ("label", Tablefmt.Left);
                ("core", Tablefmt.Right); ("busy", Tablefmt.Right);
                ("share", Tablefmt.Right); ("waited", Tablefmt.Right);
                ("sent", Tablefmt.Right); ("recvd", Tablefmt.Right) ]
        in
        List.iter
          (fun f ->
            Tablefmt.add_row busy
              [ string_of_int f.Profile.fid; f.Profile.label;
                string_of_int f.Profile.core;
                Tablefmt.cell_int f.Profile.busy; pct f.Profile.busy busy_total;
                Tablefmt.cell_int f.Profile.waited;
                Tablefmt.cell_int f.Profile.sent;
                Tablefmt.cell_int f.Profile.received ])
          (Profile.top_busy p ~n:5);
        Tablefmt.print busy;
        let waited =
          Tablefmt.create ~title:"top fibers by wait for their core"
            ~columns:
              [ ("fiber", Tablefmt.Right); ("label", Tablefmt.Left);
                ("core", Tablefmt.Right); ("waited", Tablefmt.Right);
                ("busy", Tablefmt.Right) ]
        in
        List.iter
          (fun f ->
            Tablefmt.add_row waited
              [ string_of_int f.Profile.fid; f.Profile.label;
                string_of_int f.Profile.core;
                Tablefmt.cell_int f.Profile.waited;
                Tablefmt.cell_int f.Profile.busy ])
          (Profile.top_waited p ~n:5);
        Tablefmt.print waited;
        (* who set the makespan, and which services shared its core *)
        let last =
          Tablefmt.create ~title:"last fibers to exit"
            ~columns:
              [ ("fiber", Tablefmt.Right); ("label", Tablefmt.Left);
                ("core", Tablefmt.Right); ("spawned", Tablefmt.Right);
                ("exited", Tablefmt.Right); ("waited", Tablefmt.Right);
                ("never-exiting fibers on its core", Tablefmt.Left) ]
        in
        let time t = if t < 0 then "-" else Tablefmt.cell_int t in
        List.iter
          (fun f ->
            let services =
              List.filter
                (fun g ->
                  g.Profile.exited < 0 && g.Profile.core = f.Profile.core)
                p.Profile.fibers
            in
            let shown =
              List.filteri (fun i _ -> i < 3) services
              |> List.map (fun g -> g.Profile.label)
            in
            let more = List.length services - List.length shown in
            Tablefmt.add_row last
              [ string_of_int f.Profile.fid; f.Profile.label;
                string_of_int f.Profile.core; time f.Profile.spawned;
                time f.Profile.exited; Tablefmt.cell_int f.Profile.waited;
                String.concat " "
                  (if more > 0 then shown @ [ Printf.sprintf "+%d" more ]
                   else shown) ])
          (Profile.last_exited p ~n:5);
        Tablefmt.print last;
        let blocked =
          Tablefmt.create ~title:"top fibers by blocked time"
            ~columns:
              [ ("fiber", Tablefmt.Right); ("label", Tablefmt.Left);
                ("blocked", Tablefmt.Right); ("waiting on", Tablefmt.Left) ]
        in
        List.iter
          (fun f ->
            let on =
              Profile.blocked_breakdown f
              |> List.filteri (fun i _ -> i < 3)
              |> List.map (fun (tag, d) ->
                     Printf.sprintf "%s:%s" tag (Tablefmt.cell_int d))
              |> String.concat " "
            in
            Tablefmt.add_row blocked
              [ string_of_int f.Profile.fid; f.Profile.label;
                Tablefmt.cell_int f.Profile.blocked; on ])
          (Profile.top_blocked p ~n:5);
        Tablefmt.print blocked;
        let matrix =
          Tablefmt.create
            ~title:
              (Printf.sprintf "core-to-core messages (%d total)"
                 (Profile.messages p))
            ~columns:
              (("src\\dst", Tablefmt.Left)
              :: List.init p.Profile.cores (fun c ->
                     (string_of_int c, Tablefmt.Right)))
        in
        Array.iteri
          (fun src row ->
            Tablefmt.add_row matrix
              (string_of_int src
              :: Array.to_list
                   (Array.map
                      (fun n -> if n = 0 then "." else Tablefmt.cell_int n)
                      row)))
          p.Profile.matrix;
        Tablefmt.print matrix;
        match chrome with
        | None -> ()
        | Some file ->
          Chorus_obs.Chrome_trace.write_file file records;
          Printf.printf "wrote %d records to %s (Chrome trace-event JSON)\n"
            n file)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const go $ id_arg $ full_arg $ seed_arg $ ring_arg $ json_arg
      $ chrome_arg)

(* --------------------------------------------------------------- *)
(* cluster: drive the sharded replicated KV cluster                   *)

let cluster_cmd =
  let doc =
    "Run E20's availability driver: boot the sharded, replicated KV \
     cluster on a lossy fabric, put keys (optionally crashing nodes \
     mid-run), read the acked ones back, and print availability, \
     election and healing statistics."
  in
  let nodes_arg =
    Arg.(value & opt int 5 & info [ "nodes" ] ~doc:"Cluster size.")
  in
  let shards_arg =
    Arg.(value & opt int 8 & info [ "shards" ] ~doc:"Shard count.")
  in
  let repl_arg =
    Arg.(
      value & opt int 3
      & info [ "replication" ] ~doc:"Replicas per shard (capped at nodes).")
  in
  let ops_arg =
    Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Client puts.")
  in
  let loss_arg =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~doc:"Fabric frame-loss probability (0..1).")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:"Node crashes to inject at exponential intervals.")
  in
  let go nnodes nshards replication ops loss crashes seed =
    let module E20 = Chorus_experiments.E20_cluster in
    let a, stats =
      E20.availability ~seed ~nnodes ~nshards ~replication ~ops ~loss ~crashes
        ~crash_gap:500_000
    in
    let t =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "cluster: %d nodes, %d shards x%d, loss %.1f%%, %d crashes" nnodes
             nshards (min replication nnodes) (100.0 *. loss) crashes)
        ~columns:[ ("metric", Tablefmt.Left); ("value", Tablefmt.Right) ]
    in
    let addi name v = Tablefmt.add_row t [ name; string_of_int v ] in
    addi "puts acked" a.E20.acked;
    addi "puts unavailable" a.unavailable;
    addi "reads missing an acked write" a.lost_acked;
    let avail = float_of_int a.acked /. float_of_int (max 1 ops) in
    Tablefmt.add_row t [ "availability"; Printf.sprintf "%.5f" avail ];
    addi "elections started" a.elections;
    addi "leadership changes" a.leader_changes;
    addi "node crashes detected" a.crashes;
    addi "supervisor restarts" a.restarts;
    addi "client op retries" a.retries;
    addi "client leader redirects" a.redirects;
    Tablefmt.print t;
    Printf.printf "shard leaders  %s\n"
      (String.concat " " (List.mapi (Printf.sprintf "%d:%d") a.leaders));
    Printf.printf
      "\n%d virtual cycles, %d messages, %d protocol retransmissions\n"
      stats.Chorus.Runstats.makespan stats.Chorus.Runstats.msgs
      stats.Chorus.Runstats.retries
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const go $ nodes_arg $ shards_arg $ repl_arg $ ops_arg $ loss_arg
      $ crashes_arg $ seed_arg)

let chaos_cmd =
  let doc =
    "Run a deterministic chaos campaign: enumerate fault schedules \
     (service-fiber kills, node crashes, fabric loss/dup/reorder/delay, \
     disk read errors), run a recorded workload under each, and check \
     linearizability, durability, recovery and quiescence oracles.  \
     Violations are replay-verified and shrunk to minimal schedules."
  in
  let module Chaos = Chorus_chaos.Chaos in
  let module Schedule = Chorus_chaos.Schedule in
  (* one --<name>-runs flag per registered scenario; the term yields
     the campaign's (scenario, runs) list in registry order *)
  let runs_arg =
    List.fold_right
      (fun (e : Chaos.entry) rest ->
        let doc =
          Printf.sprintf "Schedules to explore in the %s scenario: %s." e.name
            e.doc
        in
        let n =
          Arg.(
            value & opt int e.default_runs
            & info [ e.name ^ "-runs" ] ~docv:"N" ~doc)
        in
        Term.(const (fun n rest -> (e.scenario, n) :: rest) $ n $ rest))
      Chaos.scenarios (Term.const [])
  in
  let selftest_arg =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Also plant a history corruption and verify the oracles \
             catch, shrink and replay it.")
  in
  let go runs selftest seed domains =
    let domains = resolve_domains domains in
    let t0 = Unix.gettimeofday () in
    let r = Chaos.campaign ~domains ~seed runs in
    let dt = Unix.gettimeofday () -. t0 in
    let t =
      Chorus_experiments.E22_chaos.campaign_table
        ~title:
          (Printf.sprintf "chaos campaign: %d runs, seed %d" r.Chaos.runs seed)
        r
    in
    Tablefmt.add_row t [ "campaign digest"; r.Chaos.campaign_digest ];
    Tablefmt.add_row t [ "domains (host)"; string_of_int domains ];
    Tablefmt.add_row t
      [ "runs/sec (host)"; Printf.sprintf "%.1f" (float_of_int r.Chaos.runs /. dt) ];
    Tablefmt.print t;
    List.iter
      (fun v ->
        Printf.printf "VIOLATION (%s): %s\n  schedule: %s\n  minimal:  %s\n  replay-identical: %b\n"
          (Chaos.name v.Chaos.vscenario)
          v.Chaos.first
          (Schedule.to_string v.Chaos.schedule)
          (Schedule.to_string v.Chaos.minimal)
          v.Chaos.replay_identical)
      r.Chaos.violations;
    if selftest then begin
      let s = Chaos.selftest ~seed in
      Printf.printf
        "selftest: planted violation %s, shrunk to %d faults, replay \
         identical: %b\n"
        (if s.Chaos.caught then "caught" else "MISSED")
        s.Chaos.minimal_faults s.Chaos.st_replay_identical;
      if
        not (s.Chaos.caught && s.Chaos.st_replay_identical && s.Chaos.minimal_faults = 0)
      then exit 2
    end;
    if r.Chaos.violations <> [] then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const go $ runs_arg $ selftest_arg $ seed_arg $ domains_arg)

(* --------------------------------------------------------------- *)
(* replay: time-travel debugging over the chaos scenarios            *)

let replay_cmd =
  let doc =
    "Time-travel replay: drive a chaos scenario deterministically to \
     virtual time T and dump a snapshot of the complete live state \
     (run queues, fiber states, channel and inbox occupancy, raft \
     terms, metrics).  With $(b,--diff), execute two runs to the same \
     T and report the first diverging trace event plus a structural \
     state diff — point it at a shrunk reproducer and its passing \
     neighbour to see where the executions part ways."
  in
  let module Chaos = Chorus_chaos.Chaos in
  let module Schedule = Chorus_chaos.Schedule in
  let module Snapshot = Chorus_debug.Snapshot in
  let module Replay = Chorus_debug.Replay in
  let scenario_arg =
    let names =
      List.map
        (fun (e : Chaos.entry) ->
          String.concat ""
            (Printf.sprintf "$(b,%s)" e.name
            :: List.map (Printf.sprintf " (alias $(b,%s))") e.aliases))
        Chaos.scenarios
    in
    let parse s =
      match Chaos.of_name s with
      | Some scen -> Ok scen
      | None ->
        let known =
          List.map (fun (e : Chaos.entry) -> e.name) Chaos.scenarios
        in
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S (%s)" s
                (String.concat "|" known)))
    in
    let print ppf scen = Format.pp_print_string ppf (Chaos.name scen) in
    Arg.(
      value
      & opt (conv (parse, print)) Chaos.Disk
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:("Chaos scenario: " ^ String.concat ", " names ^ "."))
  in
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "index" ]
          ~doc:
            "Campaign schedule index (with --seed); 0 is the fault-free \
             schedule.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:
            "Explicit schedule in reproducer syntax (as printed by chaos \
             violation reports), overriding --seed/--index.  Example: \
             'seed=7 disk(p=0.30)@200000+150000'.")
  in
  let at_arg =
    Arg.(
      value & opt int 300_000
      & info [ "at" ] ~docv:"T" ~doc:"Virtual time (cycles) to pause at.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare against a second run (see --against / --drop) at the \
             same T.")
  in
  let against_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"SCHED"
          ~doc:"Second schedule for --diff, in reproducer syntax.")
  in
  let drop_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "drop" ] ~docv:"K"
          ~doc:
            "Second schedule for --diff = first schedule with fault K \
             (0-based) deleted; default drops the last fault.")
  in
  let parse_schedule what s =
    try Schedule.of_string s
    with Invalid_argument m ->
      Printf.eprintf "bad %s: %s\n" what m;
      exit 2
  in
  let go scen seed index schedule at diff against drop json =
    let sch =
      match schedule with
      | Some s -> parse_schedule "--schedule" s
      | None -> Chaos.gen scen ~seed ~index
    in
    if not diff then begin
      let r = Replay.run_to scen sch ~at in
      if json then print_endline (Snapshot.to_json r.Replay.snapshot)
      else begin
        Printf.printf "replay %s  %s\npaused at t=%d  (%d trace records)\n"
          (Chaos.name scen) (Schedule.to_string sch) at
          (List.length r.Replay.trace);
        print_string (Snapshot.render r.Replay.snapshot)
      end
    end
    else begin
      let sch_b =
        match (against, drop) with
        | Some s, _ -> parse_schedule "--against" s
        | None, k -> (
          let subs = Schedule.subschedules sch in
          let n = List.length subs in
          match k with
          | Some k when k < 0 || k >= n ->
            Printf.eprintf "--drop %d out of range (schedule has %d faults)\n"
              k n;
            exit 2
          | Some k -> List.nth subs k
          | None -> (
            match List.rev subs with
            | s :: _ -> s
            | [] ->
              Printf.eprintf
                "--diff needs a second run, but the schedule has no faults \
                 to drop; pass --against SCHED\n";
              exit 2))
      in
      let c = Replay.compare_runs scen sch sch_b ~at in
      if json then begin
        let open Chorus.Inspect in
        let div =
          match c.Replay.divergence with
          | None -> Null
          | Some d ->
            let side = function
              | None -> Null
              | Some r -> value_of_record r
            in
            Assoc
              [ ("index", Int d.Replay.index); ("a", side d.Replay.left);
                ("b", side d.Replay.right) ]
        in
        print_endline
          (to_json
             (Assoc
                [ ("at", Int at);
                  ("schedule_a", String (Schedule.to_string sch));
                  ("schedule_b", String (Schedule.to_string sch_b));
                  ("trace_a_records", Int (List.length c.Replay.run_a.Replay.trace));
                  ("trace_b_records", Int (List.length c.Replay.run_b.Replay.trace));
                  ("divergence", div);
                  ("state_diff",
                   Snapshot.value_of_diff c.Replay.state_diff) ]))
      end
      else begin
        Printf.printf "replay --diff at t=%d\n  A: %s\n  B: %s\n\n" at
          (Schedule.to_string sch)
          (Schedule.to_string sch_b);
        (match c.Replay.divergence with
        | None ->
          Printf.printf "traces identical (%d records)\n"
            (List.length c.Replay.run_a.Replay.trace)
        | Some d ->
          Printf.printf
            "first diverging trace event at record #%d\n  A: %s\n  B: %s\n"
            d.Replay.index
            (Replay.pp_record_str d.Replay.left)
            (Replay.pp_record_str d.Replay.right));
        match c.Replay.state_diff with
        | [] -> Printf.printf "\nstates identical at t=%d\n" at
        | entries ->
          Printf.printf "\nstate diff (%d paths):\n%s" (List.length entries)
            (Snapshot.render_diff entries)
      end
    end
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const go $ scenario_arg $ seed_arg $ index_arg $ schedule_arg $ at_arg
      $ diff_arg $ against_arg $ drop_arg $ json_arg)

let () =
  let doc =
    "Chorus: a message-passing multicore OS simulator (HotOS XIII \
     reproduction)"
  in
  let info = Cmd.info "chorus_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; profile_cmd; cluster_cmd; chaos_cmd;
            replay_cmd ]))
