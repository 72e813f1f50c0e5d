(* Smoke tests over the experiment harnesses: every registered
   experiment must run in quick mode, produce at least one table with
   at least one row, and be deterministic in its seed.  A few
   shape-level assertions pin the headline results so a regression in
   the simulator that flips a conclusion fails loudly here. *)

module Experiments = Chorus_experiments.Experiments
module E23 = Chorus_experiments.E23_projfs
module Tablefmt = Chorus_util.Tablefmt

let cell table ~row ~col =
  let rows = Tablefmt.rows table in
  List.nth (List.nth rows row) col

let fcell table ~row ~col = float_of_string (cell table ~row ~col)

let test_all_run_and_fill () =
  List.iter
    (fun e ->
      let tables = e.Experiments.run ~quick:true ~seed:7 in
      Alcotest.(check bool)
        (e.Experiments.id ^ " produced tables")
        true
        (List.length tables >= 1);
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (e.Experiments.id ^ ":" ^ Tablefmt.title t ^ " has rows")
            true
            (List.length (Tablefmt.rows t) >= 1))
        tables)
    Experiments.all

let test_registry_lookup () =
  Alcotest.(check bool) "finds e3" true (Experiments.find "E3" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.find "e99" = None);
  Alcotest.(check int) "catalogue size" 25 (List.length Experiments.all)

let run_tables id =
  match Experiments.find id with
  | Some e -> e.Experiments.run ~quick:true ~seed:7
  | None -> Alcotest.failf "experiment %s missing" id

let test_deterministic_tables () =
  List.iter
    (fun id ->
      let strings tables = List.map Tablefmt.to_string tables in
      let a = strings (run_tables id) and b = strings (run_tables id) in
      Alcotest.(check (list string)) (id ^ " deterministic") a b)
    [ "e1"; "e5"; "e11"; "e18" ]

(* shape pins: the conclusions EXPERIMENTS.md reports must survive *)

let test_e1_message_heavier_than_call () =
  match run_tables "e1" with
  | [ t ] ->
    let call = fcell t ~row:0 ~col:1 in
    let msg_local = fcell t ~row:1 ~col:1 in
    Alcotest.(check bool) "call is cycles-cheap" true (call < 10.0);
    Alcotest.(check bool) "message within 100x of a call" true
      (msg_local < 100.0 *. call);
    Alcotest.(check bool) "message costs more than a call" true
      (msg_local > call)
  | _ -> Alcotest.fail "e1 shape"

(* both E3 pins read one quick run *)
let e3_tables = lazy (run_tables "e3")

let test_e3_message_kernel_wins_at_scale () =
  match Lazy.force e3_tables with
  | [ t; _note ] ->
    let rows = Tablefmt.rows t in
    let last = List.length rows - 1 in
    let msg = fcell t ~row:last ~col:1 and lock = fcell t ~row:last ~col:2 in
    Alcotest.(check bool)
      (Printf.sprintf "msg (%.0f) > 2x lock (%.0f) at max cores" msg lock)
      true
      (msg > 2.0 *. lock)
  | _ -> Alcotest.fail "e3 shape"

(* The message kernel's ops/Mcycle at [cores] in the quick E3 run. *)
let e3_msg_at cores =
  match Lazy.force e3_tables with
  | t :: _ -> (
    match
      List.find_opt (fun row -> List.hd row = string_of_int cores)
        (Tablefmt.rows t)
    with
    | Some row -> float_of_string (List.nth row 1)
    | None -> Alcotest.failf "e3: no %d-core row" cores)
  | [] -> Alcotest.fail "e3 shape"

(* Past 64 cores the message kernel keeps scaling: each 16-core group
   looks root names up at its own replica, not at one root fiber. *)
let test_e3_message_kernel_scales_past_64 () =
  let m64 = e3_msg_at 64 and m256 = e3_msg_at 256 in
  Alcotest.(check bool)
    (Printf.sprintf "msg at 256 cores (%.0f) >= at 64 (%.0f)" m256 m64)
    true (m256 >= m64)

(* ... and at least doubles from 64 to 256 cores: a hot file vnode hands
   one-block reads and overwrites to the cache shard (DESIGN D18), so
   readers of a hot file no longer queue behind each other's cache
   round trips. *)
let test_e3_message_kernel_doubles_to_256 () =
  let m64 = e3_msg_at 64 and m256 = e3_msg_at 256 in
  Alcotest.(check bool)
    (Printf.sprintf "msg at 256 cores (%.0f) >= 2x at 64 (%.0f)" m256 m64)
    true (m256 >= 2.0 *. m64)

(* EXPERIMENTS §E3 wrinkle (ii): the full-size message kernel at 1024
   cores is below its 256-core figure, by about 6% since the core
   groups are 4x4 tiles (DESIGN D23).  With D22's groups of 16
   consecutive ids it was 12% below, and with the shards and vnodes on
   the cores next to core 0, before D22, 18%. *)
let test_e3_bend_past_256 () =
  let msg =
    Chorus_experiments.E03_scaling.msg_throughput ~quick:false ~seed:42
  in
  let m256 = msg 256 and m1024 = msg 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "msg at 1024 cores (%.0f) < at 256 (%.0f)" m1024 m256)
    true (m1024 < m256);
  Alcotest.(check bool)
    (Printf.sprintf "msg at 1024 cores (%.0f) >= 0.85x at 256 (%.0f)" m1024
       m256)
    true
    (m1024 >= 0.85 *. m256)

let test_e4_plumbing_beats_dispatch () =
  match run_tables "e4" with
  | [ t ] ->
    List.iteri
      (fun row cells ->
        let plumbed = fcell t ~row ~col:1 and routed = fcell t ~row ~col:2 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: plumbed (%.0f) < dispatched (%.0f)"
             (List.hd cells) plumbed routed)
          true (plumbed < routed))
      (Tablefmt.rows t)
  | _ -> Alcotest.fail "e4 shape"

let test_e23a_warm_opens () =
  let o = E23.measure_open ~quick:true ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "cold p50 (%d) >= 5x warm p50 (%d)" o.E23.cold_p50
       o.E23.warm_p50)
    true
    (o.E23.cold_p50 >= 5 * o.E23.warm_p50);
  Alcotest.(check int) "one hydration per file" o.E23.files o.E23.hydrations;
  Alcotest.(check int) "one name-cache hit per file" o.E23.files o.E23.nc_hits;
  Alcotest.(check int) "one name-cache miss per file" o.E23.files
    o.E23.nc_misses

let test_e23b_storm_policies () =
  let storm policy = E23.measure_storm ~quick:true ~seed:7 ~policy in
  let block = storm `Block
  and reject = storm `Reject
  and shed = storm `Shed_oldest in
  Alcotest.(check int) "block completes every reader" block.E23.clients
    block.E23.completed;
  Alcotest.(check int) "block fails nothing" 0 block.E23.failed;
  Alcotest.(check int) "reject fails exactly the rejected reads"
    reject.E23.rejected reject.E23.failed;
  Alcotest.(check bool) "reject rejects" true (reject.E23.rejected > 0);
  Alcotest.(check int) "shed-oldest fails exactly the shed reads"
    shed.E23.shed shed.E23.failed;
  Alcotest.(check bool) "shed-oldest sheds" true (shed.E23.shed > 0);
  List.iter
    (fun s ->
      Alcotest.(check int) (s.E23.policy_name ^ " capacity") 8 s.E23.capacity;
      Alcotest.(check bool)
        (Printf.sprintf "%s queue hwm %d <= 8" s.E23.policy_name s.E23.hwm)
        true (s.E23.hwm <= 8))
    [ block; reject; shed ]

let test_e7_channels_beat_signals () =
  match run_tables "e7" with
  | [ t ] ->
    let signal_mean = fcell t ~row:0 ~col:1 in
    let chan_mean = fcell t ~row:1 ~col:1 in
    let signal_waste = fcell t ~row:0 ~col:3 in
    Alcotest.(check bool) "channel latency lower" true
      (chan_mean < signal_mean);
    Alcotest.(check bool) "signals waste work" true (signal_waste > 0.0)
  | _ -> Alcotest.fail "e7 shape"

(* the cells of the row whose first column reads [name] *)
let row_named table name =
  match List.find_opt (fun r -> List.hd r = name) (Tablefmt.rows table) with
  | Some r -> r
  | None -> Alcotest.failf "no row %S in %s" name (Tablefmt.title table)

let test_e2_entry_mechanisms () =
  match run_tables "e2" with
  | [ t ] ->
    let col c name = float_of_string (List.nth (row_named t name) c) in
    let lat = col 1 and tput = col 2 in
    let hw = lat "message (hw support)"
    and sw = lat "message (sw)"
    and trap = lat "trap per call" in
    Alcotest.(check bool)
      (Printf.sprintf "latency: hw msg (%.1f) < sw msg (%.1f) < trap (%.1f)"
         hw sw trap)
      true
      (hw < sw && sw < trap);
    Alcotest.(check bool) "throughput: trap > sw msg" true
      (tput "trap per call" > tput "message (sw)");
    let best = tput "flexsc batch=32" in
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "flexsc batch=32 (%.1f) >= %s" best (List.hd r))
          true
          (best >= float_of_string (List.nth r 2)))
      (Tablefmt.rows t)
  | _ -> Alcotest.fail "e2 shape"

let test_e10_supervision_availability () =
  match run_tables "e10" with
  | [ t ] ->
    let avail interval posture =
      match
        List.find_opt
          (fun r -> List.nth r 0 = interval && List.nth r 1 = posture)
          (Tablefmt.rows t)
      with
      | Some r -> float_of_string (List.nth r 4)
      | None -> Alcotest.failf "e10: no row %s/%s" interval posture
    in
    List.iter
      (fun interval ->
        let none = avail interval "none (fail-stop)"
        and one = avail interval "one_for_one"
        and all = avail interval "one_for_all" in
        Alcotest.(check bool)
          (Printf.sprintf "%s: one_for_one %.5f > none %.5f, >= %.5f, >= 0.99"
             interval one none all)
          true
          (one > none && one >= all && one >= 0.99))
      [ "400000"; "100000"; "25000" ]
  | _ -> Alcotest.fail "e10 shape"

let test_e18_weight_ordering () =
  match run_tables "e18" with
  | [ t ] ->
    let chan = fcell t ~row:0 ~col:1 in
    let l4 = fcell t ~row:1 ~col:1 in
    let mach = fcell t ~row:2 ~col:1 in
    Alcotest.(check bool) "chan < l4 < mach" true (chan < l4 && l4 < mach)
  | _ -> Alcotest.fail "e18 shape"

(* E15: the cheaper the messages, the further the message kernel pulls
   ahead; it leads even at four times the default software cost. *)
let test_e15_cheaper_messages_widen_the_lead () =
  match run_tables "e15" with
  | [ t ] ->
    let ratios =
      List.map (fun r -> float_of_string (List.nth r 3)) (Tablefmt.rows t)
    in
    Alcotest.(check int) "software x4 to hardware support" 6
      (List.length ratios);
    Alcotest.(check bool) "msg/lock > 1 at every cost" true
      (List.for_all (fun x -> x > 1.0) ratios);
    ignore
      (List.fold_left
         (fun prev x ->
           Alcotest.(check bool)
             (Printf.sprintf "msg/lock rises: %.2f > %.2f" x prev)
             true (x > prev);
           x)
         (List.hd ratios) (List.tl ratios))
  | _ -> Alcotest.fail "e15 shape"

(* E16: the message kernel is fastest on the crossbar and slowest on
   the ring.  Mesh and hierarchy are close, and their order is not a
   verdict. *)
let test_e16_crossbar_best_ring_worst () =
  match run_tables "e16" with
  | [ t ] ->
    let ops =
      List.map
        (fun r -> (List.hd r, float_of_string (List.nth r 2)))
        (Tablefmt.rows t)
    in
    let best = List.fold_left (fun m (_, x) -> max m x) neg_infinity ops
    and worst = List.fold_left (fun m (_, x) -> min m x) infinity ops in
    Alcotest.(check (float 0.0)) "crossbar highest" best
      (List.assoc "crossbar-64" ops);
    Alcotest.(check (float 0.0)) "ring lowest" worst
      (List.assoc "ring-64" ops)
  | _ -> Alcotest.fail "e16 shape"

(* E16's mesh row is E15's default run: the same machine, kernel, load
   and seed (EXPERIMENTS §E16). *)
let test_e16_mesh_is_e15_default () =
  match (run_tables "e15", run_tables "e16") with
  | [ e15 ], [ e16 ] ->
    Alcotest.(check string) "mesh-8x8 ops/Mcyc = software x1 msg ops/Mcyc"
      (List.nth (row_named e15 "software x1 (default)") 1)
      (List.nth (row_named e16 "mesh-8x8") 2)
  | _ -> Alcotest.fail "e15/e16 shape"

(* E12: the linked libOS is at least twice as fast as plumbed message
   syscalls, which beat dispatched ones; mean latency runs the other
   way. *)
let test_e12_libos_beats_messages () =
  match run_tables "e12" with
  | [ t ] ->
    let col c name = float_of_string (List.nth (row_named t name) c) in
    let libos = "libOS (linked, bare core)"
    and plumbed = "msg kernel, plumbed"
    and routed = "msg kernel, dispatched" in
    Alcotest.(check bool)
      (Printf.sprintf "libOS (%.0f) >= 2x plumbed (%.0f) > dispatched (%.0f)"
         (col 1 libos) (col 1 plumbed) (col 1 routed))
      true
      (col 1 libos >= 2.0 *. col 1 plumbed && col 1 plumbed > col 1 routed);
    Alcotest.(check bool)
      (Printf.sprintf
         "latency: libOS (%.0f) < plumbed (%.0f) < dispatched (%.0f)"
         (col 2 libos) (col 2 plumbed) (col 2 routed))
      true
      (col 2 libos < col 2 plumbed && col 2 plumbed < col 2 routed)
  | _ -> Alcotest.fail "e12 shape"

(* E17: one message kernel beats the chip cut into VM islands at every
   skew. *)
let test_e17_single_image_beats_vm_cluster () =
  match run_tables "e17" with
  | [ t ] ->
    List.iter
      (fun r ->
        let single = float_of_string (List.nth r 1)
        and cluster = float_of_string (List.nth r 2) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: single image %.0f > VM cluster %.0f" (List.hd r)
             single cluster)
          true (single > cluster))
      (Tablefmt.rows t)
  | _ -> Alcotest.fail "e17 shape"

(* E8: no spawn-time placement is best on both shapes, and work
   stealing, which rebalances at run time, beats every one of them on
   both; checked on the quick table and on the full one EXPERIMENTS.md
   reports *)
let test_e8_stealing_wins_both_shapes () =
  let e8 =
    match Experiments.find "e8" with
    | Some e -> e
    | None -> Alcotest.fail "experiment e8 missing"
  in
  List.iter
    (fun (quick, seed) ->
      match e8.Experiments.run ~quick ~seed with
      | [ t ] ->
        let num r c = int_of_string (List.nth r c) in
        let static =
          List.filter (fun r -> List.hd r <> "work-steal") (Tablefmt.rows t)
        in
        let best c = List.fold_left (fun m r -> min m (num r c)) max_int static in
        let pipe = best 1 and fj = best 3 in
        Alcotest.(check bool) "no static policy is best on both shapes" false
          (List.exists (fun r -> num r 1 = pipe && num r 3 = fj) static);
        let ws = row_named t "work-steal" in
        Alcotest.(check bool)
          (Printf.sprintf "work-steal pipeline %d < best static %d" (num ws 1)
             pipe)
          true (num ws 1 < pipe);
        Alcotest.(check bool)
          (Printf.sprintf "work-steal fork/join %d < best static %d" (num ws 3)
             fj)
          true (num ws 3 < fj);
        Alcotest.(check bool) "work-steal steals" true (num ws 5 > 0)
      | _ -> Alcotest.fail "e8 shape")
    [ (true, 7); (false, 42) ]

let () =
  Alcotest.run "chorus-experiments"
    [ ( "smoke",
        [ Alcotest.test_case "all run and fill tables" `Slow
            test_all_run_and_fill;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "deterministic" `Quick test_deterministic_tables ] );
      ( "shape-pins",
        [ Alcotest.test_case "e1 message vs call" `Quick
            test_e1_message_heavier_than_call;
          Alcotest.test_case "e3 crossover direction" `Quick
            test_e3_message_kernel_wins_at_scale;
          Alcotest.test_case "e3 message kernel scales past 64 cores" `Quick
            test_e3_message_kernel_scales_past_64;
          Alcotest.test_case "e3 message kernel doubles from 64 to 256 cores"
            `Quick test_e3_message_kernel_doubles_to_256;
          Alcotest.test_case "e3 bends by at most 15% past 256 cores" `Quick
            test_e3_bend_past_256;
          Alcotest.test_case "e4 plumbing beats dispatch" `Quick
            test_e4_plumbing_beats_dispatch;
          Alcotest.test_case "e23a warm opens" `Quick test_e23a_warm_opens;
          Alcotest.test_case "e23b storm policies" `Quick
            test_e23b_storm_policies;
          Alcotest.test_case "e7 signals waste" `Quick
            test_e7_channels_beat_signals;
          Alcotest.test_case "e18 weight classes" `Quick
            test_e18_weight_ordering;
          Alcotest.test_case "e2 entry mechanisms" `Quick
            test_e2_entry_mechanisms;
          Alcotest.test_case "e10 supervision availability" `Quick
            test_e10_supervision_availability;
          Alcotest.test_case "e8 stealing wins both shapes" `Quick
            test_e8_stealing_wins_both_shapes;
          Alcotest.test_case "e15 cheaper messages widen the lead" `Quick
            test_e15_cheaper_messages_widen_the_lead;
          Alcotest.test_case "e16 crossbar best, ring worst" `Quick
            test_e16_crossbar_best_ring_worst;
          Alcotest.test_case "e16 mesh row is e15's default run" `Quick
            test_e16_mesh_is_e15_default;
          Alcotest.test_case "e12 libOS beats message syscalls" `Quick
            test_e12_libos_beats_messages;
          Alcotest.test_case "e17 single image beats the VM cluster" `Quick
            test_e17_single_image_beats_vm_cluster ] ) ]
