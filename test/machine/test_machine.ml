(* Tests for the machine model: topologies, cost presets, message
   latency, coherence, disk service times. *)

module Topology = Chorus_machine.Topology
module Cost = Chorus_machine.Cost
module Machine = Chorus_machine.Machine
module Coherence = Chorus_machine.Coherence
module Diskmodel = Chorus_machine.Diskmodel

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_mesh_distances () =
  let t = Topology.make (Topology.Mesh (4, 4)) in
  Alcotest.(check int) "cores" 16 (Topology.cores t);
  Alcotest.(check int) "self" 0 (Topology.hops t 5 5);
  Alcotest.(check int) "neighbour" 1 (Topology.hops t 0 1);
  Alcotest.(check int) "manhattan" 6 (Topology.hops t 0 15);
  Alcotest.(check int) "diameter" 6 (Topology.diameter t)

let test_ring_distances () =
  let t = Topology.make (Topology.Ring 8) in
  Alcotest.(check int) "wraps" 1 (Topology.hops t 0 7);
  Alcotest.(check int) "half" 4 (Topology.hops t 0 4);
  Alcotest.(check int) "diameter" 4 (Topology.diameter t)

let test_crossbar_uniform () =
  let t = Topology.make (Topology.Crossbar 6) in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j then
        Alcotest.(check int) "1 hop" 1 (Topology.hops t i j)
    done
  done

let test_hierarchy_distances () =
  let t = Topology.make (Topology.Hierarchy (2, 2, 4)) in
  Alcotest.(check int) "cores" 16 (Topology.cores t);
  Alcotest.(check int) "same cluster" 1 (Topology.hops t 0 3);
  Alcotest.(check int) "cross cluster" 3 (Topology.hops t 0 4);
  Alcotest.(check int) "cross die" 8 (Topology.hops t 0 8)

let prop_hops_symmetric =
  QCheck.Test.make ~name:"hops is a symmetric pseudo-metric" ~count:100
    QCheck.(triple (int_range 2 64) (int_range 0 1000) (int_range 0 1000))
    (fun (n, a, b) ->
      let t = Topology.make (Topology.Mesh (8, (n + 7) / 8)) in
      let c = Topology.cores t in
      let a = a mod c and b = b mod c in
      Topology.hops t a b = Topology.hops t b a
      && Topology.hops t a a = 0
      && Topology.hops t a b >= 0)

let test_mesh_neighbours () =
  let t = Topology.make (Topology.Mesh (3, 3)) in
  Alcotest.(check (list int)) "corner" [ 1; 3 ]
    (List.sort compare (Topology.neighbours t 0));
  Alcotest.(check (list int)) "center" [ 1; 3; 5; 7 ]
    (List.sort compare (Topology.neighbours t 4))

(* ------------------------------------------------------------------ *)
(* Machine / costs                                                     *)

let test_mesh_exact_core_counts () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "mesh %d exact" n)
        n
        (Machine.cores (Machine.mesh ~cores:n)))
    [ 1; 2; 4; 8; 16; 64; 128; 256; 1024 ]

let test_message_latency_monotone_in_distance () =
  let m = Machine.mesh ~cores:64 in
  let near = Machine.message_latency m ~src:0 ~dst:1 ~words:4 in
  let far = Machine.message_latency m ~src:0 ~dst:63 ~words:4 in
  let local = Machine.message_latency m ~src:5 ~dst:5 ~words:4 in
  Alcotest.(check bool) "far > near" true (far > near);
  Alcotest.(check bool) "near > local" true (near > local);
  Alcotest.(check bool) "local still positive" true (local > 0)

let test_message_latency_scales_with_words () =
  let m = Machine.mesh ~cores:16 in
  let small = Machine.message_latency m ~src:0 ~dst:3 ~words:2 in
  let big = Machine.message_latency m ~src:0 ~dst:3 ~words:512 in
  Alcotest.(check bool) "payload costs" true (big > small + 500)

let test_hw_preset_cheaper () =
  let sw = Machine.mesh ~cores:64 and hw = Machine.mesh_hw ~cores:64 in
  let l m = Machine.message_latency m ~src:0 ~dst:63 ~words:8 in
  Alcotest.(check bool) "hardware messages cheaper" true (l hw < l sw)

let test_scale_messages () =
  let c = Cost.software_messages in
  let half = Cost.scale_messages c 0.5 in
  Alcotest.(check int) "inject halved" (c.Cost.msg_inject / 2)
    half.Cost.msg_inject;
  Alcotest.(check int) "other fields untouched" c.Cost.mode_switch
    half.Cost.mode_switch

let test_words_of_bytes () =
  List.iter
    (fun (bytes, words) ->
      Alcotest.(check int)
        (Printf.sprintf "%d bytes" bytes)
        words (Cost.words_of_bytes bytes))
    [ (0, 0); (1, 1); (8, 1); (9, 2) ]

(* ------------------------------------------------------------------ *)
(* Coherence                                                           *)

let test_coherence_hit_after_read () =
  let m = Machine.mesh ~cores:16 in
  let l = Coherence.line () in
  let first = Coherence.read m l 5 in
  let second = Coherence.read m l 5 in
  Alcotest.(check bool) "first read is a miss" true (first > second);
  Alcotest.(check int) "second is a hit"
    (Machine.costs m).Cost.cache_hit second

let test_coherence_write_invalidates () =
  let m = Machine.mesh ~cores:16 in
  let l = Coherence.line () in
  ignore (Coherence.read m l 3);
  ignore (Coherence.read m l 7);
  Alcotest.(check bool) "sharers tracked" true (Coherence.sharers l >= 2);
  ignore (Coherence.write m l 9);
  Alcotest.(check int) "owner moved" 9 (Coherence.owner l);
  Alcotest.(check int) "sharers collapsed" 1 (Coherence.sharers l);
  (* the old sharer must now miss *)
  let re = Coherence.read m l 3 in
  Alcotest.(check bool) "invalidated reader misses" true
    (re > (Machine.costs m).Cost.cache_hit)

let test_coherence_queueing_collapse () =
  (* N cores hammering one line at the same instant: later requesters
     pay queueing delay (the scalability collapse mechanism) *)
  let m = Machine.mesh ~cores:64 in
  let l = Coherence.line () in
  let costs =
    List.init 16 (fun c -> Coherence.rmw ~now:1000 m l (c * 4))
  in
  let first = List.hd costs and last = List.nth costs 15 in
  Alcotest.(check bool)
    (Printf.sprintf "16th rmw much dearer (%d vs %d)" last first)
    true
    (last > first + 200)

let test_coherence_owner_writes_cheap () =
  let m = Machine.mesh ~cores:16 in
  let l = Coherence.line () in
  ignore (Coherence.write m l 4);
  let again = Coherence.write m l 4 in
  Alcotest.(check int) "owned exclusive write is a hit"
    (Machine.costs m).Cost.cache_hit again

(* ------------------------------------------------------------------ *)
(* Disk model                                                          *)

let test_disk_sequential_cheaper () =
  let seq = Diskmodel.service_time ~last_block:9 ~block:10 in
  let rand = Diskmodel.service_time ~last_block:9 ~block:5000 in
  Alcotest.(check int) "sequential skips seek" Diskmodel.per_block seq;
  Alcotest.(check int) "random seeks"
    (Diskmodel.seek + Diskmodel.per_block)
    rand

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "chorus-machine"
    [ ( "topology",
        [ Alcotest.test_case "mesh distances" `Quick test_mesh_distances;
          Alcotest.test_case "ring distances" `Quick test_ring_distances;
          Alcotest.test_case "crossbar uniform" `Quick test_crossbar_uniform;
          Alcotest.test_case "hierarchy distances" `Quick
            test_hierarchy_distances;
          Alcotest.test_case "mesh neighbours" `Quick test_mesh_neighbours;
          qt prop_hops_symmetric ] );
      ( "machine",
        [ Alcotest.test_case "exact core counts" `Quick
            test_mesh_exact_core_counts;
          Alcotest.test_case "latency vs distance" `Quick
            test_message_latency_monotone_in_distance;
          Alcotest.test_case "latency vs payload" `Quick
            test_message_latency_scales_with_words;
          Alcotest.test_case "hw preset cheaper" `Quick test_hw_preset_cheaper;
          Alcotest.test_case "scale_messages" `Quick test_scale_messages;
          Alcotest.test_case "words_of_bytes" `Quick test_words_of_bytes ] );
      ( "coherence",
        [ Alcotest.test_case "hit after read" `Quick
            test_coherence_hit_after_read;
          Alcotest.test_case "write invalidates" `Quick
            test_coherence_write_invalidates;
          Alcotest.test_case "contended rmw queues" `Quick
            test_coherence_queueing_collapse;
          Alcotest.test_case "owner writes cheap" `Quick
            test_coherence_owner_writes_cheap ] );
      ( "disk",
        [ Alcotest.test_case "sequential cheaper" `Quick
            test_disk_sequential_cheaper ] ) ]
