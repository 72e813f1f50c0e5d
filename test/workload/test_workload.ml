(* Tests for the workload generators: fsload, pipeline, mapred, gui. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Histogram = Chorus_util.Histogram
module Fsload = Chorus_workload.Fsload
module Pipeline = Chorus_workload.Pipeline
module Mapred = Chorus_workload.Mapred
module Gui = Chorus_workload.Gui
module Fsmodel = Chorus_fsspec.Fsmodel
module Libos = Chorus_kernel.Libos

let run ?(cores = 16) main =
  Runtime.run (Runtime.config ~policy:(Policy.round_robin ()) (Machine.mesh ~cores)) main

(* ------------------------------------------------------------------ *)
(* Fsload                                                              *)

module Model_load = Fsload.Make (Fsmodel)
module Libos_load = Fsload.Make (Libos)

let small_cfg =
  { Fsload.default_config with
    clients = 3;
    ops_per_client = 50;
    files = 16;
    dirs = 4;
    file_size = 2048;
    io_size = 128 }

let test_fsload_on_reference_model () =
  (* the generator itself must produce zero failed ops against the
     reference semantics *)
  let (_ : Runstats.t) =
    run (fun () ->
        let fs = Fsmodel.make () in
        Model_load.setup fs small_cfg;
        let r = Model_load.run_clients (fun _ -> fs) small_cfg in
        Alcotest.(check int) "ops" 150 r.Fsload.total_ops;
        Alcotest.(check int) "no failures" 0 r.Fsload.failed_ops;
        Alcotest.(check bool) "latencies recorded" true
          (Histogram.count r.Fsload.latency = 150);
        Alcotest.(check bool) "per-op split present" true
          (List.length r.Fsload.per_op >= 2))
  in
  ()

let test_fsload_on_libos () =
  let (_ : Runstats.t) =
    run (fun () ->
        let fs = Libos.make () in
        Libos_load.setup fs small_cfg;
        let r = Libos_load.run_clients (fun _ -> fs) small_cfg in
        Alcotest.(check int) "no failures" 0 r.Fsload.failed_ops;
        Alcotest.(check bool) "elapsed measured" true (r.Fsload.elapsed > 0);
        Alcotest.(check bool) "throughput positive" true
          (Fsload.throughput r > 0.0))
  in
  ()

let test_fsload_deterministic () =
  let go () =
    let tput = ref 0.0 in
    let (_ : Runstats.t) =
      run (fun () ->
          let fs = Libos.make () in
          Libos_load.setup fs small_cfg;
          tput := Fsload.throughput (Libos_load.run_clients (fun _ -> fs) small_cfg))
    in
    !tput
  in
  Alcotest.(check (float 1e-9)) "same throughput" (go ()) (go ())

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let test_pipeline_delivers_all () =
  let (_ : Runstats.t) =
    run (fun () ->
        let r =
          Pipeline.run { Pipeline.default_config with items = 100; stages = 3 }
        in
        Alcotest.(check int) "all items" 100
          (Histogram.count r.Pipeline.item_latency);
        Alcotest.(check bool) "makespan sane" true (r.Pipeline.makespan_hint > 0))
  in
  ()

let test_pipeline_latency_grows_with_stages () =
  let mean stages =
    let m = ref 0.0 in
    let (_ : Runstats.t) =
      run (fun () ->
          let r =
            Pipeline.run
              { Pipeline.default_config with items = 100; stages; capacity = 4 }
          in
          m := Histogram.mean r.Pipeline.item_latency)
    in
    !m
  in
  Alcotest.(check bool) "deeper pipeline, higher latency" true
    (mean 8 > mean 2)

(* ------------------------------------------------------------------ *)
(* Mapred                                                              *)

let test_mapred_equivalence () =
  let cfg = { Mapred.default_config with chunks = 8; words_per_chunk = 100 } in
  let msg = ref None and sh = ref None in
  let (_ : Runstats.t) = run (fun () -> msg := Some (Mapred.run_messages cfg)) in
  let (_ : Runstats.t) = run (fun () -> sh := Some (Mapred.run_shared cfg)) in
  let m = Option.get !msg and s = Option.get !sh in
  Alcotest.(check int) "total words" (8 * 100) m.Mapred.total;
  Alcotest.(check bool) "some vocabulary hit" true (m.Mapred.distinct > 10);
  Alcotest.(check int) "same distinct" m.Mapred.distinct s.Mapred.distinct;
  Alcotest.(check int) "same total" m.Mapred.total s.Mapred.total;
  Alcotest.(check int) "same checksum" m.Mapred.checksum s.Mapred.checksum

(* ------------------------------------------------------------------ *)
(* Gui                                                                 *)

let test_gui_both_structures_complete () =
  let cfg = { Gui.default_config with input_events = 40; app_updates = 40 } in
  let check_result name r =
    Alcotest.(check int) (name ^ " updates rendered") 40
      (Histogram.count r.Gui.update_latency);
    Alcotest.(check int) (name ^ " inputs handled") 40
      (Histogram.count r.Gui.input_latency)
  in
  let (_ : Runstats.t) = run (fun () -> check_result "peer" (Gui.run_peer cfg)) in
  let (_ : Runstats.t) =
    run (fun () -> check_result "hier" (Gui.run_hierarchical cfg))
  in
  ()

let test_gui_peer_updates_faster () =
  let cfg = { Gui.default_config with input_events = 60; app_updates = 60 } in
  let peer = ref 0.0 and hier = ref 0.0 in
  let (_ : Runstats.t) =
    run (fun () -> peer := Histogram.mean (Gui.run_peer cfg).Gui.update_latency)
  in
  let (_ : Runstats.t) =
    run (fun () ->
        hier := Histogram.mean (Gui.run_hierarchical cfg).Gui.update_latency)
  in
  Alcotest.(check bool)
    (Printf.sprintf "peer %.0f < hier %.0f" !peer !hier)
    true (!peer < !hier)

let () =
  Alcotest.run "chorus-workload"
    [ ( "fsload",
        [ Alcotest.test_case "reference model" `Quick
            test_fsload_on_reference_model;
          Alcotest.test_case "libos" `Quick test_fsload_on_libos;
          Alcotest.test_case "deterministic" `Quick test_fsload_deterministic ] );
      ( "pipeline",
        [ Alcotest.test_case "delivers all" `Quick test_pipeline_delivers_all;
          Alcotest.test_case "latency vs depth" `Quick
            test_pipeline_latency_grows_with_stages ] );
      ( "mapred",
        [ Alcotest.test_case "msg == shared results" `Quick
            test_mapred_equivalence ] );
      ( "gui",
        [ Alcotest.test_case "both complete" `Quick
            test_gui_both_structures_complete;
          Alcotest.test_case "peer faster updates" `Quick
            test_gui_peer_updates_faster ] ) ]
