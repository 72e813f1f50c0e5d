(* Tests for the projected filesystem: provider catalog determinism
   and wire protocol, and the end-to-end mount — placeholder hydration
   over the net stack, warm opens that ask the provider nothing,
   copy-up writes, prefetch, names under the mount seen alike by every
   client, failure and recovery of the provider, and the zero observer
   effect of tracing and metrics on the VFS path (DESIGN D11). *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Fsspec = Chorus_fsspec.Fsspec
module Blockdev = Chorus_kernel.Blockdev
module Bcache = Chorus_kernel.Bcache
module Cgalloc = Chorus_kernel.Cgalloc
module Msgvfs = Chorus_kernel.Msgvfs
module Place = Chorus_kernel.Place
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Svc = Chorus_svc.Svc
module Provider = Chorus_projfs.Provider
module Projfs = Chorus_projfs.Projfs
module Trace = Chorus.Trace
module Metrics = Chorus_obs.Metrics

let run ?(cores = 8) ?(policy = Policy.round_robin ()) ?(seed = 42) ?trace
    main =
  Runtime.run
    (Runtime.config ?trace ~policy ~seed (Machine.mesh ~cores))
    main

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" what (Fsspec.err_to_string e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" what (Fsspec.err_to_string expected)
  | Error e ->
    Alcotest.(check string) what
      (Fsspec.err_to_string expected)
      (Fsspec.err_to_string e)

(* ------------------------------------------------------------------ *)
(* Provider catalog                                                    *)

let test_provider_catalog () =
  let cat = Provider.catalog ~seed:5 ~nfiles:2500 in
  Alcotest.(check int) "ndirs" 79 (Provider.ndirs cat);
  let rel = Provider.rel_path cat 1042 in
  Alcotest.(check string) "rel path shape" "d032/f001042" rel;
  (match Provider.content cat rel with
  | None -> Alcotest.fail "content of a real file"
  | Some body ->
    Alcotest.(check bool) "content embeds path" true
      (String.length body > String.length rel
      && String.sub body 0 (String.length rel) = rel);
    Alcotest.(check (option int))
      "size agrees" (Some (String.length body)) (Provider.size_of cat rel));
  Alcotest.(check (option string)) "no such file" None
    (Provider.content cat "d000/f000042");
  Alcotest.(check (option string)) "non-canonical rejected" None
    (Provider.content cat "d32/f001042");
  (* determinism: two catalogs with the same coordinates agree *)
  let cat' = Provider.catalog ~seed:5 ~nfiles:2500 in
  Alcotest.(check (option string)) "content deterministic"
    (Provider.content cat rel) (Provider.content cat' rel);
  (* different seed, different bytes *)
  let cat2 = Provider.catalog ~seed:6 ~nfiles:2500 in
  Alcotest.(check bool) "seed changes contents" false
    (Provider.content cat rel = Provider.content cat2 rel)

let test_provider_protocol () =
  let cat = Provider.catalog ~seed:5 ~nfiles:64 in
  (* root listing *)
  (match Provider.handle cat "L" with
  | "N" -> Alcotest.fail "root list failed"
  | resp ->
    let entries =
      Provider.decode_entries (String.sub resp 1 (String.length resp - 1))
    in
    Alcotest.(check int) "two dirs" 2 (List.length entries));
  (* dir listing round-trips through the wire encoding *)
  (match Provider.handle cat "L d001" with
  | "N" -> Alcotest.fail "dir list failed"
  | resp ->
    let entries =
      Provider.decode_entries (String.sub resp 1 (String.length resp - 1))
    in
    Alcotest.(check int) "32 files" 32 (List.length entries);
    List.iter
      (fun (name, kind, size) ->
        Alcotest.(check bool) "file kind" true (kind = Fsspec.File);
        Alcotest.(check (option int))
          (Printf.sprintf "size of %s" name)
          (Some size)
          (Provider.size_of cat ("d001/" ^ name)))
      entries);
  Alcotest.(check string) "bad dir" "N" (Provider.handle cat "L d009");
  Alcotest.(check string) "bad verb" "N" (Provider.handle cat "X d001");
  let rel = Provider.rel_path cat 40 in
  match (Provider.handle cat ("R " ^ rel), Provider.content cat rel) with
  | resp, Some body -> Alcotest.(check string) "read" ("D" ^ body) resp
  | _, None -> Alcotest.fail "content missing"

(* ------------------------------------------------------------------ *)
(* End-to-end mount                                                    *)

let boot ?hydration ?workers ~cat () =
  let dev = Blockdev.start () in
  let cache = Bcache.start ~shards:2 ~capacity:256 ~dev () in
  let alloc = Cgalloc.start ~nblocks:4096 () in
  let fs = Msgvfs.mount Msgvfs.default_config ~bcache:cache ~alloc in
  let net = Fabric.create ~latency:2_000 ~seed:7 () in
  let pstack = Stack.create net (Fabric.attach net ~label:"provider" ()) in
  let mstack = Stack.create net (Fabric.attach net ~label:"mount" ()) in
  let server = Provider.serve cat pstack in
  let pf =
    check_ok "mount"
      (Projfs.mount ?hydration ?workers ~fs ~at:"/proj"
         ~stack:mstack ~provider:(Stack.addr pstack) ())
  in
  (fs, pf, server, net)

let test_e2e_cold_read_correct () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, pf, server, _net = boot ~cat () in
        let c = Msgvfs.client fs in
        (* the projected tree is visible *)
        let dirs = check_ok "readdir root" (Msgvfs.readdir c "/proj") in
        Alcotest.(check (list string)) "projected dirs"
          [ "d000"; "d001"; "d002" ] dirs;
        let rel = Provider.rel_path cat 33 in
        let path = "/proj/" ^ rel in
        let expected = Option.get (Provider.content cat rel) in
        (* stat before hydration: declared size, no blocks *)
        let st = check_ok "stat cold" (Msgvfs.stat c path) in
        Alcotest.(check int) "declared size" (String.length expected) st.Fsspec.size;
        Alcotest.(check int) "no blocks yet" 0 st.Fsspec.blocks;
        Alcotest.(check int) "nothing hydrated" 0
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* first read hydrates over the wire *)
        let fd = check_ok "open" (Msgvfs.open_ c path) in
        let data =
          check_ok "read" (Msgvfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "hydrated bytes match the catalog" expected data;
        Alcotest.(check int) "one hydration" 1
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* second read comes from cache blocks: no new provider traffic *)
        let reqs = Provider.requests server in
        let again =
          check_ok "reread" (Msgvfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "stable" expected again;
        Alcotest.(check int) "no extra provider requests" reqs
          (Provider.requests server);
        check_ok "close" (Msgvfs.close c fd))
  in
  ()

(* A warm open walks the path again, but the names are already listed:
   it asks the provider nothing. *)
let test_e2e_warm_open () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, _pf, server, _net = boot ~cat () in
        let c = Msgvfs.client fs in
        let path = "/proj/" ^ Provider.rel_path cat 10 in
        let fd1 = check_ok "cold open" (Msgvfs.open_ c path) in
        check_ok "close1" (Msgvfs.close c fd1);
        let reqs = Provider.requests server in
        Alcotest.(check bool) "the cold open listed the path" true (reqs > 0);
        let fd2 = check_ok "warm open" (Msgvfs.open_ c path) in
        check_ok "close2" (Msgvfs.close c fd2);
        Alcotest.(check int) "the warm open asks the provider nothing" reqs
          (Provider.requests server))
  in
  ()

let test_e2e_negative_and_create_invalidation () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, _pf, _server, _net = boot ~cat () in
        let c = Msgvfs.client fs in
        let path = "/proj/d000/notyet" in
        check_err "missing" Fsspec.Enoent (Msgvfs.open_ c path);
        check_err "still missing" Fsspec.Enoent (Msgvfs.open_ c path);
        (* creating the file makes the name openable *)
        check_ok "create" (Msgvfs.create c path);
        let fd = check_ok "open after create" (Msgvfs.open_ c path) in
        ignore (check_ok "write" (Msgvfs.write c fd ~off:0 "local"));
        let got = check_ok "read back" (Msgvfs.read c fd ~off:0 ~len:5) in
        Alcotest.(check string) "local file readable" "local" got;
        check_ok "close" (Msgvfs.close c fd);
        (* rename moves the name *)
        let dst = "/proj/d000/renamed" in
        check_ok "rename" (Msgvfs.rename c path dst);
        check_err "old name gone" Fsspec.Enoent (Msgvfs.open_ c path);
        let fd2 = check_ok "open new name" (Msgvfs.open_ c dst) in
        check_ok "close2" (Msgvfs.close c fd2);
        (* projected names refuse unlink/rename-over *)
        let proj_name = "/proj/d000/" ^ "f000000" in
        check_err "projected unlink refused" Fsspec.Einval
          (Msgvfs.unlink c proj_name);
        check_ok "local unlink ok" (Msgvfs.unlink c dst))
  in
  ()

let test_e2e_copy_up_write () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, pf, _server, _net = boot ~cat () in
        let c = Msgvfs.client fs in
        let rel = Provider.rel_path cat 5 in
        let path = "/proj/" ^ rel in
        let base = Option.get (Provider.content cat rel) in
        let fd = check_ok "open" (Msgvfs.open_ c path) in
        (* writing a cold placeholder hydrates first (copy-up), then
           overlays *)
        ignore (check_ok "write" (Msgvfs.write c fd ~off:3 "XYZ"));
        let got =
          check_ok "read" (Msgvfs.read c fd ~off:0 ~len:(String.length base))
        in
        let expected =
          String.sub base 0 3 ^ "XYZ"
          ^ String.sub base 6 (String.length base - 6)
        in
        Alcotest.(check string) "projected base under local overlay" expected
          got;
        Alcotest.(check int) "hydrated exactly once" 1
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        check_ok "close" (Msgvfs.close c fd))
  in
  ()

let test_e2e_prefetch () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, pf, server, _net = boot ~cat () in
        let paths =
          List.map (fun i -> "/proj/" ^ Provider.rel_path cat i) [ 1; 2; 3 ]
        in
        List.iter (Projfs.prefetch pf) paths;
        (* wait for the background warms to land *)
        let rec settle tries =
          let _, done_, dropped = Projfs.prefetch_stats pf in
          if done_ + dropped >= 3 || tries = 0 then ()
          else begin
            Fiber.sleep 200_000;
            settle (tries - 1)
          end
        in
        settle 50;
        let _, done_, dropped = Projfs.prefetch_stats pf in
        Alcotest.(check int) "all prefetches landed" 3 done_;
        Alcotest.(check int) "none dropped" 0 dropped;
        Alcotest.(check int) "three hydrations" 3
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* a later open and read is warm: the prefetch worker walked the
           path and hydrated the file *)
        let reqs = Provider.requests server in
        let c = Msgvfs.client fs in
        let fd = check_ok "open" (Msgvfs.open_ c (List.hd paths)) in
        ignore (check_ok "read" (Msgvfs.read c fd ~off:0 ~len:64));
        check_ok "close" (Msgvfs.close c fd);
        Alcotest.(check int) "the open after a prefetch asks the provider \
           nothing" reqs (Provider.requests server))
  in
  ()

let test_e2e_hydration_failure_is_clean_and_retryable () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, pf, _server, net = boot ~cat () in
        let c = Msgvfs.client fs in
        let rel = Provider.rel_path cat 50 in
        let path = "/proj/" ^ rel in
        let expected = Option.get (Provider.content cat rel) in
        let fd = check_ok "open" (Msgvfs.open_ c path) in
        (* cut the wire: hydration must fail Eio, not hang or tear *)
        Fabric.set_faults net ~loss:0.999 ();
        check_err "clean failure" Fsspec.Eio
          (Msgvfs.read c fd ~off:0 ~len:8);
        Alcotest.(check int) "failure counted" 1
          (Msgvfs.hydration_failures (Projfs.fs_sys pf));
        Alcotest.(check int) "placeholder still cold" 0
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* heal the wire: the same fd hydrates on retry *)
        Fabric.set_faults net ~loss:0.0 ();
        let got =
          check_ok "retry read"
            (Msgvfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "retried hydration intact" expected got;
        check_ok "close" (Msgvfs.close c fd))
  in
  ()

let test_e2e_hydration_storm_reject_policy () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:16 (fun () ->
        let fs, pf, _server, _net =
          boot
            ~hydration:(Svc.config ~capacity:2 ~policy:`Reject ())
            ~workers:1 ~cat ()
        in
        (* 12 concurrent cold readers against a capacity-2, one-worker
           hydration endpoint: some fills must be rejected, every
           rejection must surface as Eio, and nothing may tear *)
        let results = Array.make 12 (Error Fsspec.Einval) in
        let fibers =
          List.init 12 (fun i ->
              Fiber.spawn (fun () ->
                  let c = Msgvfs.client fs in
                  let rel = Provider.rel_path cat i in
                  match Msgvfs.open_ c ("/proj/" ^ rel) with
                  | Error e -> results.(i) <- Error e
                  | Ok fd ->
                    results.(i) <- Msgvfs.read c fd ~off:0 ~len:256;
                    ignore (Msgvfs.close c fd)))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers;
        let ok = ref 0 and eio = ref 0 in
        Array.iteri
          (fun i r ->
            match r with
            | Ok data ->
              incr ok;
              let rel = Provider.rel_path cat i in
              Alcotest.(check string)
                (Printf.sprintf "no torn read for %s" rel)
                (Option.get (Provider.content cat rel))
                data
            | Error Fsspec.Eio -> incr eio
            | Error e ->
              Alcotest.failf "unexpected %s" (Fsspec.err_to_string e))
          results;
        Alcotest.(check int) "every reader resolved" 12 (!ok + !eio);
        Alcotest.(check bool) "storm actually overloaded" true (!eio > 0);
        Alcotest.(check bool) "some fills completed" true (!ok > 0);
        let ep = Projfs.hydrate_ep pf in
        Alcotest.(check bool) "endpoint counted rejections" true
          (Svc.rejected ep > 0))
  in
  ()

let test_e2e_determinism () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let once () =
    let stats =
      run ~cores:8 (fun () ->
          let fs, _pf, _server, _net = boot ~cat () in
          let c = Msgvfs.client fs in
          for i = 0 to 7 do
            let path = "/proj/" ^ Provider.rel_path cat (i * 11) in
            match Msgvfs.open_ c path with
            | Error _ -> ()
            | Ok fd ->
              ignore (Msgvfs.read c fd ~off:0 ~len:64);
              ignore (Msgvfs.close c fd)
          done)
    in
    stats.Runstats.makespan
  in
  Alcotest.(check int) "same seed, same makespan" (once ()) (once ())

let test_e2e_cold_unlink_refused () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, _pf, _server, _net = boot ~cat () in
        let c = Msgvfs.client fs in
        (* nothing has listed d001 yet: the refusal must not depend on
           whether the directory was enumerated *)
        check_err "projected unlink refused on a cold directory"
          Fsspec.Einval
          (Msgvfs.unlink c "/proj/d001/f000033"))
  in
  ()

(* An old holder's close must not disturb the file that took its
   name: A opens, unlinks, B recreates and opens the same name, then A
   closes, and B's descriptor still writes and reads. *)
let test_e2e_release_after_rebind () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let fs, _pf, _server, _net = boot ~cat () in
        let a = Msgvfs.client fs and b = Msgvfs.client fs in
        let path = "/tmp/x" in
        check_ok "mkdir" (Msgvfs.mkdir a "/tmp");
        check_ok "create" (Msgvfs.create a path);
        let fd_a = check_ok "A opens" (Msgvfs.open_ a path) in
        check_ok "A unlinks" (Msgvfs.unlink a path);
        check_ok "B recreates" (Msgvfs.create b path);
        let fd_b = check_ok "B opens" (Msgvfs.open_ b path) in
        check_ok "A closes" (Msgvfs.close a fd_a);
        Alcotest.(check int) "B writes" 3
          (check_ok "B writes" (Msgvfs.write b fd_b ~off:0 "b's"));
        for i = 1 to 5 do
          check_err "negative lookup" Fsspec.Enoent
            (Msgvfs.open_ b (Printf.sprintf "/tmp/none%d" i))
        done;
        Alcotest.(check string) "B reads its write" "b's"
          (check_ok "B reads" (Msgvfs.read b fd_b ~off:0 ~len:3));
        check_ok "B closes" (Msgvfs.close b fd_b))
  in
  ()

(* Names under the mount are the kernel's: a name one client unlinks
   is gone for every other client, and a name one client creates is
   there for every other, whatever they saw of it before.  On 64 cores
   the three clients run in three core groups, so their walks go
   through three group name caches (DESIGN D19); on 8 there are none. *)
let test_e2e_names_across_clients () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let scenario cores =
    let (_ : Runstats.t) =
      run ~cores (fun () ->
          let fs, _pf, _server, _net = boot ~cat () in
          let place = Place.current () in
          (* a core of group [g], or core [g] where there are no groups *)
          let core g =
            if Place.groups place = 0 then g
            else
              List.find
                (fun c -> Place.group place c = g)
                (List.init cores Fun.id)
          in
          (* run [f] in a fiber on [core] and return its result *)
          let on core f =
            let r = ref None in
            ignore
              (Fiber.join (Fiber.spawn ~on:core (fun () -> r := Some (f ()))));
            Option.get !r
          in
          let a = Msgvfs.client fs and b = Msgvfs.client fs
          and k = Msgvfs.client fs in
          let opens c core what path =
            on core (fun () ->
                Result.map
                  (fun fd -> check_ok what (Msgvfs.close c fd))
                  (Msgvfs.open_ c path))
          in
          let local = "/proj/d000/local" in
          check_ok "A creates" (on (core 1) (fun () -> Msgvfs.create a local));
          check_ok "A opens" (opens a (core 1) "A closes" local);
          check_ok "B opens" (opens b (core 2) "B closes" local);
          check_ok "K unlinks" (on (core 3) (fun () -> Msgvfs.unlink k local));
          check_err "A opens the unlinked name" Fsspec.Enoent
            (opens a (core 1) "A closes" local);
          check_err "B opens the unlinked name" Fsspec.Enoent
            (opens b (core 2) "B closes" local);
          let missing = "/proj/d000/notyet" in
          check_err "A opens a missing name" Fsspec.Enoent
            (opens a (core 1) "A closes" missing);
          check_err "B opens a missing name" Fsspec.Enoent
            (opens b (core 2) "B closes" missing);
          check_ok "K creates"
            (on (core 3) (fun () -> Msgvfs.create k missing));
          check_ok "A opens the created name"
            (opens a (core 1) "A closes" missing);
          check_ok "B opens the created name"
            (opens b (core 2) "B closes" missing))
    in
    ()
  in
  scenario 8;
  scenario 64

(* DESIGN D11: observability never moves virtual time.  The same VFS
   workload runs bare and with a trace ring plus an installed metrics
   registry; both runs must agree on every cycle, message and event,
   and return the same bytes. *)
let test_observer_effect () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let workload got () =
    let fs, _pf, _server, _net = boot ~cat () in
    let k = Msgvfs.client fs in
    check_ok "mkdir" (Msgvfs.mkdir k "/tmp");
    check_ok "create" (Msgvfs.create k "/tmp/hello");
    let fd = check_ok "open" (Msgvfs.open_ k "/tmp/hello") in
    ignore (check_ok "write" (Msgvfs.write k fd ~off:0 "observed"));
    let local = check_ok "read" (Msgvfs.read k fd ~off:0 ~len:8) in
    let c = Msgvfs.client fs in
    let path = "/proj/" ^ Provider.rel_path cat 7 in
    let projected_read () =
      let fd = check_ok "open projected" (Msgvfs.open_ c path) in
      let data =
        check_ok "read projected" (Msgvfs.read c fd ~off:0 ~len:64)
      in
      check_ok "close projected" (Msgvfs.close c fd);
      data
    in
    let cold = projected_read () in
    let warm = projected_read () in
    got := [ local; cold; warm ]
  in
  let bare_got = ref [] and traced_got = ref [] in
  let bare = run (workload bare_got) in
  let sink, records, _dropped = Trace.ring ~capacity:65536 () in
  Metrics.install (Metrics.create ());
  let traced =
    Fun.protect ~finally:Metrics.uninstall (fun () ->
        run ~trace:sink (workload traced_got))
  in
  Alcotest.(check bool) "the traced run was traced" true (records () <> []);
  Alcotest.(check int) "makespan" bare.Runstats.makespan
    traced.Runstats.makespan;
  Alcotest.(check int) "msgs" bare.Runstats.msgs traced.Runstats.msgs;
  Alcotest.(check int) "events" bare.Runstats.events traced.Runstats.events;
  Alcotest.(check int) "segments" bare.Runstats.segments
    traced.Runstats.segments;
  Alcotest.(check (list string)) "results" !bare_got !traced_got

let () =
  Alcotest.run "vfs"
    [ ( "provider",
        [ Alcotest.test_case "catalog" `Quick test_provider_catalog;
          Alcotest.test_case "protocol" `Quick test_provider_protocol ] );
      ( "projfs",
        [ Alcotest.test_case "cold-read-correct" `Quick
            test_e2e_cold_read_correct;
          Alcotest.test_case "warm-open" `Quick test_e2e_warm_open;
          Alcotest.test_case "negative-and-invalidation" `Quick
            test_e2e_negative_and_create_invalidation;
          Alcotest.test_case "copy-up-write" `Quick test_e2e_copy_up_write;
          Alcotest.test_case "prefetch" `Quick test_e2e_prefetch;
          Alcotest.test_case "hydration-failure-clean" `Quick
            test_e2e_hydration_failure_is_clean_and_retryable;
          Alcotest.test_case "hydration-storm-reject" `Quick
            test_e2e_hydration_storm_reject_policy;
          Alcotest.test_case "determinism" `Quick test_e2e_determinism;
          Alcotest.test_case "cold-unlink-refused" `Quick
            test_e2e_cold_unlink_refused;
          Alcotest.test_case "release-after-rebind" `Quick
            test_e2e_release_after_rebind;
          Alcotest.test_case "names-across-clients" `Quick
            test_e2e_names_across_clients;
          Alcotest.test_case "observer-effect" `Quick
            test_observer_effect ] ) ]
