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

let test_e3_message_kernel_wins_at_scale () =
  match run_tables "e3" with
  | [ t; _note ] ->
    let rows = Tablefmt.rows t in
    let last = List.length rows - 1 in
    let msg = fcell t ~row:last ~col:1 and lock = fcell t ~row:last ~col:2 in
    Alcotest.(check bool)
      (Printf.sprintf "msg (%.0f) > 2x lock (%.0f) at max cores" msg lock)
      true
      (msg > 2.0 *. lock)
  | _ -> Alcotest.fail "e3 shape"

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
            test_e10_supervision_availability ] ) ]
