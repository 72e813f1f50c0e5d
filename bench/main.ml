(* The committed benchmark files.

   Each BENCH_<name>.json renders rows that an experiment measures for
   its own table (E3, E20-E25) or a chaos campaign, at seed 42, so every
   field is a pure function of the seed and scripts/bench_guard
   compares the files byte for byte.  What this file alone states is
   which rows each file holds, their field names, the projfs and gray
   campaign sizes and the layout.  Host speed is measured by perfbench,
   not here.

   Usage: main.exe [--<name>-only], where --<name>-only writes just
   BENCH_<name>.json; with no flag, all six files are written.  Any
   other argument exits 2. *)

module Inspect = Chorus.Inspect
module Chaos = Chorus_chaos.Chaos
module E3 = Chorus_experiments.E03_scaling
module E20 = Chorus_experiments.E20_cluster
module E21 = Chorus_experiments.E21_overload
module E22 = Chorus_experiments.E22_chaos
module E23 = Chorus_experiments.E23_projfs
module E24 = Chorus_experiments.E24_hotpath
module E25 = Chorus_experiments.E25_gray

let seed = 42

(* A file's layout.  Keys and scalars are written by Inspect.to_json. *)
type layout =
  | Obj of (string * layout) list  (* one member per line *)
  | Arr of layout list  (* one element per line *)
  | Row of (string * layout) list  (* every member on one line *)
  | Fixed of int * float  (* a number with this many decimals *)
  | Value of Inspect.value

let int n = Value (Inspect.Int n)

let bool b = Value (Inspect.Bool b)

let str s = Value (Inspect.String s)

let rec render indent = function
  | Obj members ->
    block indent '{' '}' (List.map (member (indent ^ "  ")) members)
  | Arr elements ->
    block indent '[' ']' (List.map (render (indent ^ "  ")) elements)
  | Row members ->
    "{ " ^ String.concat ", " (List.map (member indent) members) ^ " }"
  | Fixed (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Value v -> Inspect.to_json v

and member indent (key, v) =
  Inspect.to_json (Inspect.String key) ^ ": " ^ render indent v

and block indent opening closing items =
  let inner = List.map (fun s -> "\n" ^ indent ^ "  " ^ s) items in
  Printf.sprintf "%c%s\n%s%c" opening (String.concat "," inner) indent closing

(* a file: its schema, the seed, then its own members *)
let doc schema members =
  let schema = ("schema", str ("chorus-bench-" ^ schema)) in
  Obj (schema :: ("seed", int seed) :: members)

(* A campaign's members: each scenario's runs, their total when it mixes
   scenarios, then the campaign's simulator-side fields.  The writer
   fails on an oracle violation. *)
let campaign tasks =
  let r = Chaos.campaign ~seed tasks in
  if r.violations <> [] then begin
    List.iter
      (fun v -> Printf.eprintf "VIOLATION: %s\n" v.Chaos.first)
      r.violations;
    prerr_endline "FATAL: a BENCH campaign must pass every oracle";
    exit 1
  end;
  List.map (fun (s, n) -> (Chaos.name s ^ "_runs", int n)) tasks
  @ (if List.length tasks > 1 then [ ("runs", int r.runs) ] else [])
  @ [ ("client_ops", int r.total_ops);
      ("faults_injected", int r.faults_injected);
      ("faults_explored", Obj (List.map (fun (k, n) -> (k, int n)) r.kinds));
      ("oracle_violations", int (List.length r.violations));
      ("campaign_digest", str r.campaign_digest) ]

(* E3's full 1..1024-core sweep: the headline number. *)
let e3 () =
  let row (r : E3.row) =
    Row
      [ ("cores", int r.cores);
        ("msg_ops_per_mcycle", Fixed (2, r.msg));
        ("lock_ops_per_mcycle", Fixed (2, r.lock)) ]
  in
  doc "e3-v1" [ ("sweep", Arr (List.map row (E3.sweep ~quick:false ~seed))) ]

(* E20's failover table, and E24's load sweep and its write path at 1,
   3 and 5 replicas. *)
let cluster () =
  let group (r : E20.failover_row) =
    Row
      [ ("nodes", int r.nodes);
        ("puts_acked", int r.puts_acked);
        ("puts_issued", int r.puts_issued);
        ("cycles_per_put", int r.cycles_per_put);
        ( "failover_window_cycles",
          Option.fold ~none:(Value Null) ~some:int r.window ) ]
  in
  let point (p : E24.point) =
    Row
      [ ("offered_per_mcycle", int p.offered);
        ("replicas", int p.replicas);
        ("batched", bool p.batched);
        ("leased", bool p.leased);
        ("completed", int p.completed);
        ("failed", int p.failed);
        ("throughput_per_mcycle", Fixed (1, p.throughput));
        ("cycles_per_op", int p.cycles_per_op);
        ("p50_cycles", int p.p50);
        ("p99_cycles", int p.p99);
        ("put_p99_cycles", int p.put_p99);
        ("appends", int p.appends);
        ("group_commits", int p.group_commits);
        ("leased_reads", int p.leased_reads) ]
  in
  let groups = E20.failover_rows ~quick:true ~seed in
  let sweep = E24.sweep_points ~quick:true ~seed in
  let writes = E24.write_points ~quick:true ~seed [ 1; 3; 5 ] in
  doc "cluster-v2"
    [ ("replica_groups", Arr (List.map group groups));
      ("hot_path_sweep", Arr (List.map point sweep));
      ("write_path_saturation", Arr (List.map point writes)) ]

(* E21's policy x load table. *)
let overload () =
  let sample (s : E21.sample) =
    Row
      [ ("policy", str s.policy_name);
        ("load_pct", int s.load_pct);
        ("sent", int s.sent);
        ("completed", int s.completed);
        ("busy", int s.busy);
        ("rejected", int s.rejected);
        ("shed", int s.shed);
        ("queue_hwm", int s.hwm);
        ("p50_cycles", int s.p50);
        ("p99_cycles", int s.p99);
        ("goodput_per_mcycle", Fixed (2, s.goodput)) ]
  in
  doc "overload-v1"
    [ ("postures", Arr (List.map sample (E21.samples ~quick:true ~seed))) ]

(* E22's campaign at full size, and the oracle selftest. *)
let chaos () =
  let members = campaign (E22.runs ~quick:false) in
  let st = Chaos.selftest ~seed in
  doc "chaos-v1"
    (members
    @ [ ( "selftest",
          Row
            [ ("caught", bool st.caught);
              ("minimal_faults", int st.minimal_faults);
              ("replay_identical", bool st.st_replay_identical) ] ) ])

(* E23's cold and warm opens and its storm table, and a 12-run projfs
   campaign. *)
let vfs () =
  let o = E23.measure_open ~quick:true ~seed in
  let storm (s : E23.storm_sample) =
    Row
      [ ("policy", str s.policy_name);
        ("readers", int s.clients);
        ("capacity", int s.capacity);
        ("completed", int s.completed);
        ("failed", int s.failed);
        ("rejected", int s.rejected);
        ("shed", int s.shed);
        ("queue_hwm", int s.hwm);
        ("p99_cycles", int s.p99);
        ("makespan_cycles", int s.makespan);
        ("goodput_per_mcycle", Fixed (2, s.goodput)) ]
  in
  let storms = E23.storms ~quick:true ~seed in
  doc "vfs-v3"
    [ ( "open",
        Row
          [ ("files", int o.files);
            ("cold_p50_cycles", int o.cold_p50);
            ("cold_p99_cycles", int o.cold_p99);
            ("warm_p50_cycles", int o.warm_p50);
            ("warm_p99_cycles", int o.warm_p99);
            ("hydrations", int o.hydrations) ] );
      ("storm", Arr (List.map storm storms));
      ("chaos", Obj (campaign [ (Chaos.Projfs, 12) ])) ]

(* E25's two tables, healthy fabric first, and a 50-run gray
   campaign. *)
let gray () =
  let posture (p : E25.point) =
    Row
      [ ("gray", bool p.gray);
        ("breakers", bool p.breakers);
        ("deadlines", bool p.deadlines);
        ("completed", int p.completed);
        ("failed", int p.failed);
        ("p50_cycles", int p.p50);
        ("p99_cycles", int p.p99);
        ("max_cycles", int p.pmax);
        ("deadline_misses", int p.misses);
        ("breaker_trips", int p.trips);
        ("breaker_skips", int p.skips);
        ("link_delayed", int p.link_delayed) ]
  in
  let healthy = E25.points ~quick:true ~seed ~gray:false in
  let grayed = E25.points ~quick:true ~seed ~gray:true in
  doc "gray-v1"
    [ ("postures", Arr (List.map posture (healthy @ grayed)));
      ("chaos", Obj (campaign [ (Chaos.Gray, 50) ])) ]

(* one entry per BENCH_<name>.json, selected by --<name>-only *)
let files =
  [ ("e3", e3); ("cluster", cluster); ("overload", overload);
    ("chaos", chaos); ("vfs", vfs); ("gray", gray) ]

let write (name, layout) =
  let file = "BENCH_" ^ name ^ ".json" in
  let text = render "" (layout ()) ^ "\n" in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  Printf.printf "wrote %s\n" file

let () =
  let flag (name, _) = "--" ^ name ^ "-only" in
  let args = List.tl (Array.to_list Sys.argv) in
  let known a = List.exists (fun f -> flag f = a) files in
  match List.find_opt (fun a -> not (known a)) args with
  | Some a ->
    Printf.eprintf
      "main.exe: unknown argument %s\nusage: main.exe [--<name>-only], \
       <name> one of %s\n"
      a
      (String.concat ", " (List.map fst files));
    exit 2
  | None -> (
    match List.find_opt (fun f -> List.mem (flag f) args) files with
    | Some f -> write f
    | None -> List.iter write files)
