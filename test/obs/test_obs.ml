(* Tests for the observability layer: trace ring buffer, metrics
   registry, span pairing, profile distillation and the Chrome
   trace-event exporter. *)

module Trace = Chorus.Trace
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Machine = Chorus_machine.Machine
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span
module Profile = Chorus_obs.Profile
module Chrome_trace = Chorus_obs.Chrome_trace

let mk_record ?(core = 0) ?(fiber = 1) time event =
  { Trace.time; core; fiber; event }

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_drop_oldest () =
  let sink, get, dropped = Trace.ring ~capacity:4 () in
  for i = 1 to 10 do
    sink (mk_record i (Trace.Block { on = string_of_int i }))
  done;
  let times = List.map (fun r -> r.Trace.time) (get ()) in
  Alcotest.(check (list int)) "keeps newest, in order" [ 7; 8; 9; 10 ] times;
  Alcotest.(check int) "dropped oldest" 6 (dropped ())

let test_ring_under_capacity () =
  let sink, get, dropped = Trace.ring ~capacity:8 () in
  for i = 1 to 3 do
    sink (mk_record i Trace.Wake)
  done;
  Alcotest.(check int) "all kept" 3 (List.length (get ()));
  Alcotest.(check int) "nothing dropped" 0 (dropped ())

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let with_registry f =
  let reg = Metrics.create () in
  Metrics.install reg;
  Fun.protect ~finally:Metrics.uninstall (fun () -> f reg)

let test_metrics_basics () =
  with_registry @@ fun reg ->
  let c = Metrics.counter ~subsystem:"t" "reqs" in
  for _ = 1 to 5 do
    Metrics.incr c
  done;
  let g = Metrics.gauge ~subsystem:"t" "depth" in
  Metrics.observe g 3;
  Metrics.observe g 7;
  Metrics.observe g 2;
  let h = Metrics.histogram ~subsystem:"t" "lat" in
  List.iter (Metrics.record h) [ 10; 20; 30 ];
  match Metrics.snapshot reg with
  | [ (("t", "depth"), Metrics.Gauge { last; peak; mean });
      (("t", "lat"), Metrics.Histo { count; max; _ });
      (("t", "reqs"), Metrics.Counter n) ] ->
    Alcotest.(check int) "counter" 5 n;
    Alcotest.(check int) "gauge last" 2 last;
    Alcotest.(check int) "gauge peak" 7 peak;
    Alcotest.(check (float 1e-9)) "gauge mean" 4.0 mean;
    Alcotest.(check int) "histo count" 3 count;
    Alcotest.(check int) "histo max" 30 max
  | snap -> Alcotest.failf "unexpected snapshot (%d entries)" (List.length snap)

let test_metrics_dedup_and_kinds () =
  with_registry @@ fun reg ->
  (* same (subsystem, name) from two call sites shares one cell *)
  let a = Metrics.counter ~subsystem:"t" "n" in
  let b = Metrics.counter ~subsystem:"t" "n" in
  Metrics.incr a;
  Metrics.incr b;
  (match Metrics.snapshot reg with
  | [ (_, Metrics.Counter n) ] -> Alcotest.(check int) "aggregated" 2 n
  | _ -> Alcotest.fail "expected one counter");
  (* re-registering under a different kind is a bug, not a new metric *)
  Alcotest.(check bool)
    "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge ~subsystem:"t" "n");
       false
     with Invalid_argument _ -> true)

let test_metrics_dead_handles () =
  (* with no registry installed every handle is inert *)
  Alcotest.(check bool) "nothing installed" true (Metrics.installed () = None);
  let c = Metrics.counter ~subsystem:"t" "x" in
  let h = Metrics.histogram ~subsystem:"t" "y" in
  Metrics.incr c;
  Metrics.record h 5;
  Alcotest.(check bool) "histogram dead" false (Metrics.live h)

(* ------------------------------------------------------------------ *)
(* Spans + metrics in a real run                                       *)

(* a client/server exchange wrapped in Span.timed, as services do *)
let workload h () =
  let ep = Chan.rendezvous ~label:"srv" () in
  let _srv =
    Fiber.spawn ~daemon:true (fun () ->
        let rec loop () =
          let reply = Chan.recv ep in
          Fiber.work 100;
          Chan.send reply 1;
          loop ()
        in
        loop ())
  in
  for _ = 1 to 10 do
    Span.timed ~subsystem:"test" ~name:"call" h (fun () ->
        let reply = Chan.rendezvous () in
        Chan.send ep reply;
        ignore (Chan.recv reply))
  done

let run_traced () =
  let reg = Metrics.create () in
  Metrics.install reg;
  Fun.protect ~finally:Metrics.uninstall (fun () ->
      let sink, get = Trace.collector () in
      let h = Metrics.histogram ~subsystem:"test" "call" in
      let stats =
        Runtime.run
          (Runtime.config ~trace:sink ~seed:7 (Machine.mesh ~cores:4))
          (workload h)
      in
      (stats, get (), Metrics.snapshot reg))

let test_span_pairing () =
  let _, records, snap = run_traced () in
  let begins, ends =
    List.fold_left
      (fun (b, e) r ->
        match r.Trace.event with
        | Trace.Span_begin { subsystem = "test"; span = "call" } -> (b + 1, e)
        | Trace.Span_end { subsystem = "test"; span = "call" } -> (b, e + 1)
        | _ -> (b, e))
      (0, 0) records
  in
  Alcotest.(check int) "10 begins" 10 begins;
  Alcotest.(check int) "10 ends" 10 ends;
  (* the timed wrapper also fed the metrics histogram *)
  match List.assoc_opt ("test", "call") snap with
  | Some (Metrics.Histo { count; p50; _ }) ->
    Alcotest.(check int) "histo count" 10 count;
    Alcotest.(check bool) "latency positive" true (p50 > 0)
  | _ -> Alcotest.fail "no test/call histogram"

let test_profile_matches_engine () =
  let stats, records, _ = run_traced () in
  let p = Profile.of_records records in
  (* every counted message appears exactly once in the flow matrix *)
  Alcotest.(check int) "matrix total = engine msgs"
    stats.Chorus.Runstats.msgs (Profile.messages p);
  (* fibers doing the work show up busiest, and busy time is bounded
     by the run's makespan per fiber *)
  let top = Profile.top_busy p ~n:5 in
  Alcotest.(check bool) "some busy fibers" true (top <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "fiber %d busy <= makespan" f.Profile.fid)
        true
        (f.Profile.busy <= stats.Chorus.Runstats.makespan))
    top

(* Each fiber's core comes from its Spawn and moves with each Steal;
   its core wait sums each Wake to the start of its next Segment. *)
let test_profile_core_wait () =
  let seg fiber core ~start stop =
    mk_record ~fiber ~core stop (Trace.Segment { start; label = "f" })
  in
  let records =
    [ mk_record ~fiber:0 ~core:0 0 (Trace.Spawn { child = 5; on_core = 3 });
      mk_record ~fiber:0 ~core:0 0 (Trace.Spawn { child = 6; on_core = 3 });
      mk_record ~fiber:5 ~core:3 10 Trace.Wake;
      mk_record ~fiber:6 ~core:3 10 Trace.Wake;
      seg 5 3 ~start:25 40;
      seg 6 3 ~start:40 90;
      mk_record ~fiber:5 ~core:3 40 (Trace.Block { on = "recv" });
      mk_record ~fiber:5 ~core:3 100 Trace.Wake;
      mk_record ~fiber:5 ~core:7 130
        (Trace.Steal { victim_core = 3 });
      seg 5 7 ~start:130 150;
      (* a fiber whose Spawn the records miss runs where its records
         say *)
      mk_record ~fiber:9 ~core:2 200 Trace.Wake;
      seg 9 2 ~start:200 210 ]
  in
  let p = Profile.of_records records in
  let get fid = List.find (fun f -> f.Profile.fid = fid) p.Profile.fibers in
  let check fid ~core ~waited ~busy =
    let f = get fid in
    Alcotest.(check (list int))
      (Printf.sprintf "fiber %d: core, waited, busy" fid)
      [ core; waited; busy ]
      [ f.Profile.core; f.Profile.waited; f.Profile.busy ]
  in
  check 5 ~core:7 ~waited:(15 + 30) ~busy:(15 + 20);
  check 6 ~core:3 ~waited:30 ~busy:50;
  check 9 ~core:2 ~waited:0 ~busy:10;
  Alcotest.(check int) "fiber 5's blocked time" 60 (get 5).Profile.blocked;
  Alcotest.(check (list int)) "top by core wait" [ 5; 6 ]
    (List.map (fun f -> f.Profile.fid) (Profile.top_waited p ~n:5))

(* spawn and exit times come from the Spawn naming the fiber and from
   its own Exit; either is -1 when the records do not hold it *)
let test_profile_last_exited () =
  let exit_at fiber core time =
    mk_record ~fiber ~core time (Trace.Exit { status = "ok" })
  in
  let records =
    [ (* fiber 4's Spawn fell out of the ring: it is first met here *)
      mk_record ~fiber:4 ~core:1 5 Trace.Wake;
      mk_record ~fiber:0 ~core:0 10 (Trace.Spawn { child = 5; on_core = 3 });
      mk_record ~fiber:0 ~core:0 20 (Trace.Spawn { child = 6; on_core = 3 });
      (* a daemon on core 7 that never exits *)
      mk_record ~fiber:0 ~core:0 30 (Trace.Spawn { child = 8; on_core = 7 });
      mk_record ~fiber:8 ~core:7 40 (Trace.Block { on = "recv" });
      (* fiber 5 is stolen to core 7 and exits there *)
      mk_record ~fiber:5 ~core:7 50
        (Trace.Steal { victim_core = 3 });
      exit_at 5 7 90;
      exit_at 6 3 90;
      exit_at 4 1 60 ]
  in
  let p = Profile.of_records records in
  let get fid = List.find (fun f -> f.Profile.fid = fid) p.Profile.fibers in
  let check fid ~core ~spawned ~exited =
    let f = get fid in
    Alcotest.(check (list int))
      (Printf.sprintf "fiber %d: core, spawned, exited" fid)
      [ core; spawned; exited ]
      [ f.Profile.core; f.Profile.spawned; f.Profile.exited ]
  in
  check 4 ~core:1 ~spawned:(-1) ~exited:60;
  check 5 ~core:7 ~spawned:10 ~exited:90;
  check 6 ~core:3 ~spawned:20 ~exited:90;
  check 8 ~core:7 ~spawned:30 ~exited:(-1);
  Alcotest.(check (list int)) "latest first, ties by id" [ 5; 6; 4 ]
    (List.map (fun f -> f.Profile.fid) (Profile.last_exited p ~n:5));
  Alcotest.(check (list int)) "the first n" [ 5; 6 ]
    (List.map (fun f -> f.Profile.fid) (Profile.last_exited p ~n:2))

let test_metrics_deterministic () =
  let _, _, snap1 = run_traced () in
  let _, _, snap2 = run_traced () in
  Alcotest.(check bool) "same snapshot across same-seed runs" true
    (snap1 = snap2)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

(* minimal recursive-descent JSON well-formedness check, so the test
   needs no json library; an object that repeats a key fails it *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let adv () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
    then begin
      adv ();
      skip_ws ()
    end
  in
  let lit w =
    String.iter
      (fun c ->
        if peek () <> c then fail ();
        adv ())
      w
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      adv ()
    done;
    if !pos = start then fail ()
  in
  (* the string's raw text, quotes included *)
  let string_ () =
    let start = !pos in
    if peek () <> '"' then fail ();
    adv ();
    let rec go () =
      match peek () with
      | '"' -> adv ()
      | '\\' ->
        adv ();
        adv ();
        go ()
      | _ ->
        adv ();
        go ()
    in
    go ();
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> ignore (string_ ())
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and obj () =
    adv ();
    skip_ws ();
    if peek () = '}' then adv ()
    else
      let keys = Hashtbl.create 8 in
      let rec members () =
        skip_ws ();
        let key = string_ () in
        if Hashtbl.mem keys key then fail ();
        Hashtbl.replace keys key ();
        skip_ws ();
        if peek () <> ':' then fail ();
        adv ();
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          adv ();
          members ()
        | '}' -> adv ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    adv ();
    skip_ws ();
    if peek () = ']' then adv ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          adv ();
          elems ()
        | ']' -> adv ()
        | _ -> fail ()
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_chrome_well_formed () =
  let _, records, _ = run_traced () in
  let json = Chrome_trace.to_string records in
  Alcotest.(check bool) "valid JSON" true (json_valid json);
  let contains needle =
    let nl = String.length needle and l = String.length json in
    let rec go i = i + nl <= l && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "names cores" true (contains "core 0");
  Alcotest.(check bool) "has span slices" true (contains "\"call\"")

let test_chrome_deterministic () =
  let _, r1, _ = run_traced () in
  let _, r2, _ = run_traced () in
  Alcotest.(check string) "byte-identical across same-seed runs"
    (Chrome_trace.to_string r1) (Chrome_trace.to_string r2)

let test_chrome_unclosed_span () =
  let records =
    [ mk_record 5 (Trace.Span_begin { subsystem = "t"; span = "orphan" }) ]
  in
  let json = Chrome_trace.to_string records in
  Alcotest.(check bool) "still valid" true (json_valid json);
  let contains needle =
    let nl = String.length needle and l = String.length json in
    let rec go i = i + nl <= l && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "marked unclosed" true (contains "unclosed:")

let test_chrome_escaping () =
  let records =
    [ mk_record 1 (Trace.Block { on = "quote\" slash\\ newline\n tab\t" }) ]
  in
  Alcotest.(check bool) "escapes string fields" true
    (json_valid (Chrome_trace.to_string records))

(* The whole export of a hand-built trace, byte for byte: one record
   of every event kind, a span pair, a span left open and a string that
   needs escaping.  Instant marks carry the record's fiber and then the
   event's own fields, each key once. *)
let test_chrome_pinned () =
  let r ~fiber ~core time event = { Trace.time; core; fiber; event } in
  let records =
    [ r ~fiber:1 ~core:0 0 (Trace.Spawn { child = 2; on_core = 1 });
      r ~fiber:2 ~core:1 5 Trace.Wake;
      r ~fiber:2 ~core:1 20 (Trace.Segment { start = 5; label = "worker" });
      r ~fiber:2 ~core:1 20
        (Trace.Send { chan = 3; words = 2; src = 1; dst = 0 });
      r ~fiber:1 ~core:0 30 (Trace.Recv { chan = 3 });
      r ~fiber:1 ~core:0 31 (Trace.Block { on = "q \"a\\b\"\n\t" });
      r ~fiber:2 ~core:0 40 (Trace.Steal { victim_core = 1 });
      r ~fiber:2 ~core:0 45
        (Trace.Span_begin { subsystem = "svc"; span = "call" });
      r ~fiber:2 ~core:0 60
        (Trace.Span_end { subsystem = "svc"; span = "call" });
      r ~fiber:2 ~core:0 61
        (Trace.Span_begin { subsystem = "svc"; span = "open" });
      r ~fiber:2 ~core:0 70 (Trace.Exit { status = "ok" }) ]
  in
  let thread tid name sort =
    Printf.sprintf
      {|{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"%s"}},{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}|}
      tid name tid sort
  in
  let expected =
    {|{"displayTimeUnit":"ms","otherData":{"exporter":"chorus","timeUnit":"1 virtual cycle = 1 us"},"traceEvents":[|}
    ^ String.concat ","
        [ {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"chorus"}}|};
          thread 0 "external" (-1);
          thread 1 "core 0" 0;
          thread 1001 "core 0 spans" 1;
          thread 2 "core 1" 2;
          thread 1002 "core 1 spans" 3;
          {|{"ph":"i","pid":1,"tid":1,"ts":0,"s":"t","name":"spawn","args":{"fiber":1,"child":2,"on_core":1}}|};
          {|{"ph":"i","pid":1,"tid":2,"ts":5,"s":"t","name":"wake","args":{"fiber":2}}|};
          {|{"ph":"X","pid":1,"tid":2,"ts":5,"dur":15,"name":"worker","args":{"fiber":2}}|};
          {|{"ph":"i","pid":1,"tid":2,"ts":20,"s":"t","name":"send","args":{"fiber":2,"chan":3,"words":2,"src":1,"dst":0}}|};
          {|{"ph":"i","pid":1,"tid":1,"ts":30,"s":"t","name":"recv","args":{"fiber":1,"chan":3}}|};
          {|{"ph":"i","pid":1,"tid":1,"ts":31,"s":"t","name":"block","args":{"fiber":1,"on":"q \"a\\b\"\n\t"}}|};
          {|{"ph":"i","pid":1,"tid":1,"ts":40,"s":"t","name":"steal","args":{"fiber":2,"victim_core":1}}|};
          {|{"ph":"X","pid":1,"tid":1001,"ts":45,"dur":15,"name":"call","args":{"fiber":2,"subsystem":"svc"}}|};
          {|{"ph":"i","pid":1,"tid":1001,"ts":61,"s":"t","name":"unclosed:open","args":{"fiber":2,"subsystem":"svc"}}|};
          {|{"ph":"i","pid":1,"tid":1,"ts":70,"s":"t","name":"exit","args":{"fiber":2,"status":"ok"}}|}
        ]
    ^ "]}\n"
  in
  let json = Chrome_trace.to_string records in
  Alcotest.(check bool) "valid JSON, no object repeats a key" true
    (json_valid json);
  Alcotest.(check string) "export" expected json

(* The file [write_file] streams holds [to_string]'s bytes, over an
   export several times the 64 KB it writes at a time. *)
let test_chrome_write_file () =
  let records =
    List.concat
      (List.init 2_000 (fun i ->
           [ mk_record (2 * i)
               (Trace.Segment { start = (2 * i) - 1; label = "seg" });
             mk_record ((2 * i) + 1)
               (Trace.Block { on = Printf.sprintf "q\"%d\"\n" i }) ]))
  in
  let expected = Chrome_trace.to_string records in
  Alcotest.(check bool) "export spans several chunks" true
    (String.length expected > 4 * 65_536);
  let path = Filename.temp_file "chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.write_file path records;
      Alcotest.(check string) "file = to_string" expected
        (In_channel.with_open_bin path In_channel.input_all))

(* ------------------------------------------------------------------ *)
(* Default-trace factory                                               *)

let test_default_trace_factory () =
  let made = ref 0 in
  Runtime.set_default_trace
    (Some
       (fun () ->
         incr made;
         fun _ -> ()));
  Fun.protect ~finally:(fun () -> Runtime.set_default_trace None) @@ fun () ->
  let cfg () = Runtime.config ~seed:1 (Machine.mesh ~cores:2) in
  ignore (Runtime.run (cfg ()) (fun () -> Fiber.work 10));
  ignore (Runtime.run (cfg ()) (fun () -> Fiber.work 10));
  Alcotest.(check int) "one sink per run" 2 !made;
  (* explicit sinks win over the ambient factory *)
  let sink, get = Trace.collector () in
  ignore
    (Runtime.run
       (Runtime.config ~trace:sink ~seed:1 (Machine.mesh ~cores:2))
       (fun () -> Fiber.work 10));
  Alcotest.(check int) "explicit sink untouched by factory" 2 !made;
  Alcotest.(check bool) "explicit sink used" true (get () <> [])

let () =
  Alcotest.run "chorus-obs"
    [ ( "ring",
        [ Alcotest.test_case "drop oldest" `Quick test_ring_drop_oldest;
          Alcotest.test_case "under capacity" `Quick test_ring_under_capacity ]
      );
      ( "metrics",
        [ Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "dedup + kinds" `Quick
            test_metrics_dedup_and_kinds;
          Alcotest.test_case "dead handles" `Quick test_metrics_dead_handles;
          Alcotest.test_case "deterministic" `Quick test_metrics_deterministic
        ] );
      ( "spans",
        [ Alcotest.test_case "pairing" `Quick test_span_pairing;
          Alcotest.test_case "profile matches engine" `Quick
            test_profile_matches_engine;
          Alcotest.test_case "profile core and core wait" `Quick
            test_profile_core_wait;
          Alcotest.test_case "profile last fibers to exit" `Quick
            test_profile_last_exited ] );
      ( "chrome",
        [ Alcotest.test_case "well-formed" `Quick test_chrome_well_formed;
          Alcotest.test_case "deterministic" `Quick test_chrome_deterministic;
          Alcotest.test_case "unclosed span" `Quick test_chrome_unclosed_span;
          Alcotest.test_case "escaping" `Quick test_chrome_escaping;
          Alcotest.test_case "pinned export" `Quick test_chrome_pinned;
          Alcotest.test_case "write_file streams to_string's bytes" `Quick
            test_chrome_write_file ] );
      ( "runtime",
        [ Alcotest.test_case "default trace factory" `Quick
            test_default_trace_factory ] ) ]
