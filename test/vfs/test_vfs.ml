(* Tests for the projected filesystem: name-cache LRU order and the
   cached/active/inactive/dying lifecycle, negative-entry invalidation
   on create/rename, provider catalog determinism and wire protocol,
   and the end-to-end mount — placeholder hydration over the net
   stack, warm opens through the cache, copy-up writes, prefetch,
   failure and recovery of the provider, and the zero observer effect
   of tracing and metrics on the VFS path (DESIGN D11). *)

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
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Svc = Chorus_svc.Svc
module Namecache = Chorus_projfs.Namecache
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
(* Name cache: LRU and lifecycle                                       *)

let test_nc_lru_eviction_order () =
  let c = Namecache.create ~cap:3 () in
  Namecache.insert c "a" 1;
  Namecache.insert c "b" 2;
  Namecache.insert c "c" 3;
  (* touch a so b is now the least recently used *)
  (match Namecache.find c "a" with
  | `Hit 1 -> ()
  | _ -> Alcotest.fail "expected hit on a");
  Namecache.insert c "d" 4;
  Alcotest.(check int) "capacity held" 3 (Namecache.length c);
  Alcotest.(check int) "one eviction" 1 (Namecache.evictions c);
  Alcotest.(check bool) "b evicted" true (Namecache.find c "b" = `Miss);
  Alcotest.(check bool) "a survived" true (Namecache.find c "a" = `Hit 1);
  (* now c is coldest (a and d touched since) *)
  Namecache.insert c "e" 5;
  Alcotest.(check bool) "c evicted next" true (Namecache.find c "c" = `Miss);
  Alcotest.(check bool) "d survived" true (Namecache.find c "d" = `Hit 4)

let test_nc_active_entries_never_evict () =
  let c = Namecache.create ~cap:2 () in
  Namecache.insert c "a" 1;
  Namecache.acquire c "a";
  Namecache.insert c "b" 2;
  Namecache.insert c "c" 3;
  Namecache.insert c "d" 4;
  (* active a is immune; only the evictable pool rotates *)
  Alcotest.(check bool) "a still present" true (Namecache.find c "a" = `Hit 1);
  Alcotest.(check (option string))
    "a active"
    (Some "active")
    (Option.map Namecache.state_name (Namecache.state_of c "a"))

let test_nc_lifecycle () =
  let c = Namecache.create ~cap:8 () in
  let state name =
    Option.map Namecache.state_name (Namecache.state_of c name)
  in
  Namecache.insert c "x" 10;
  Alcotest.(check (option string)) "cached on insert" (Some "cached")
    (state "x");
  Namecache.acquire c "x";
  Alcotest.(check (option string)) "active on acquire" (Some "active")
    (state "x");
  Namecache.acquire c "x";
  Namecache.release c "x";
  Alcotest.(check (option string)) "still active (refs=1)" (Some "active")
    (state "x");
  Namecache.release c "x";
  Alcotest.(check (option string)) "inactive on last release"
    (Some "inactive") (state "x");
  Alcotest.(check bool) "inactive entries still hit" true
    (Namecache.find c "x" = `Hit 10);
  (* invalidate while referenced -> dying; reaped on release *)
  Namecache.acquire c "x";
  Namecache.invalidate c "x";
  Alcotest.(check (option string)) "dying while held" (Some "dying")
    (state "x");
  Alcotest.(check bool) "dying entries miss" true
    (Namecache.find c "x" = `Miss);
  Namecache.release c "x";
  Alcotest.(check (option string)) "reaped after release" None (state "x");
  (* invalidate with no refs drops immediately *)
  Namecache.insert c "y" 20;
  Namecache.invalidate c "y";
  Alcotest.(check (option string)) "dropped immediately" None (state "y");
  Alcotest.(check int) "invalidation count" 2 (Namecache.invalidations c)

let test_nc_negative_entries () =
  let c = Namecache.create ~cap:8 () in
  Namecache.insert_negative c "ghost";
  Alcotest.(check bool) "negative hit" true (Namecache.find c "ghost" = `Negative);
  Alcotest.(check int) "negative counter" 1 (Namecache.negative_hits c);
  (* create over the name must kill the negative entry *)
  Namecache.invalidate c "ghost";
  Alcotest.(check bool) "miss after invalidate" true
    (Namecache.find c "ghost" = `Miss)

let test_nc_state_counts () =
  let c = Namecache.create ~cap:8 () in
  Namecache.insert c "a" 1;
  Namecache.insert c "b" 2;
  Namecache.acquire c "b";
  Namecache.insert c "c" 3;
  Namecache.acquire c "c";
  Namecache.release c "c";
  Namecache.insert c "d" 4;
  Namecache.acquire c "d";
  Namecache.invalidate c "d";
  let counts =
    List.map
      (fun (st, n) -> (Namecache.state_name st, n))
      (Namecache.state_counts c)
  in
  Alcotest.(check (list (pair string int)))
    "one of each state"
    [ ("cached", 1); ("active", 1); ("inactive", 1); ("dying", 1) ]
    counts

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

let boot ?hydration ?workers ?namecache ~cat () =
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
      (Projfs.mount ?hydration ?workers ?namecache ~fs ~at:"/proj"
         ~stack:mstack ~provider:(Stack.addr pstack) ())
  in
  (fs, pf, server, net)

let test_e2e_cold_read_correct () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, server, _net = boot ~cat () in
        let c = Projfs.client pf in
        (* the projected tree is visible *)
        let dirs = check_ok "readdir root" (Projfs.readdir c "/proj") in
        Alcotest.(check (list string)) "projected dirs"
          [ "d000"; "d001"; "d002" ] dirs;
        let rel = Provider.rel_path cat 33 in
        let path = "/proj/" ^ rel in
        let expected = Option.get (Provider.content cat rel) in
        (* stat before hydration: declared size, no blocks *)
        let st = check_ok "stat cold" (Projfs.stat c path) in
        Alcotest.(check int) "declared size" (String.length expected) st.Fsspec.size;
        Alcotest.(check int) "no blocks yet" 0 st.Fsspec.blocks;
        Alcotest.(check int) "nothing hydrated" 0
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* first read hydrates over the wire *)
        let fd = check_ok "open" (Projfs.open_ c path) in
        let data =
          check_ok "read" (Projfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "hydrated bytes match the catalog" expected data;
        Alcotest.(check int) "one hydration" 1
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* second read comes from cache blocks: no new provider traffic *)
        let reqs = Provider.requests server in
        let again =
          check_ok "reread" (Projfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "stable" expected again;
        Alcotest.(check int) "no extra provider requests" reqs
          (Provider.requests server);
        check_ok "close" (Projfs.close c fd))
  in
  ()

let test_e2e_warm_open_skips_walk () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~cat () in
        let c = Projfs.client pf in
        let path = "/proj/" ^ Provider.rel_path cat 10 in
        let fd1 = check_ok "cold open" (Projfs.open_ c path) in
        check_ok "close1" (Projfs.close c fd1);
        let fd2 = check_ok "warm open" (Projfs.open_ c path) in
        check_ok "close2" (Projfs.close c fd2);
        let cold, warm = Projfs.open_stats c in
        Alcotest.(check (pair int int)) "one cold, one warm" (1, 1)
          (cold, warm);
        let nc = Projfs.cache pf in
        Alcotest.(check int) "cache hit recorded" 1 (Namecache.hits nc);
        (* the entry is inactive after the last close *)
        Alcotest.(check (option string))
          "inactive after close"
          (Some "inactive")
          (Option.map Namecache.state_name (Namecache.state_of nc path)))
  in
  ()

let test_e2e_negative_and_create_invalidation () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~cat () in
        let c = Projfs.client pf in
        let path = "/proj/d000/notyet" in
        check_err "missing" Fsspec.Enoent (Projfs.open_ c path);
        (* second miss is served by the negative entry *)
        check_err "still missing" Fsspec.Enoent (Projfs.open_ c path);
        let nc = Projfs.cache pf in
        Alcotest.(check int) "negative hit" 1 (Namecache.negative_hits nc);
        (* creating the file shoots the negative entry down *)
        check_ok "create" (Projfs.create c path);
        let fd = check_ok "open after create" (Projfs.open_ c path) in
        ignore (check_ok "write" (Projfs.write c fd ~off:0 "local"));
        let got = check_ok "read back" (Projfs.read c fd ~off:0 ~len:5) in
        Alcotest.(check string) "local file readable" "local" got;
        check_ok "close" (Projfs.close c fd);
        (* rename invalidates both names *)
        let dst = "/proj/d000/renamed" in
        check_ok "rename" (Projfs.rename c path dst);
        check_err "old name gone" Fsspec.Enoent (Projfs.open_ c path);
        let fd2 = check_ok "open new name" (Projfs.open_ c dst) in
        check_ok "close2" (Projfs.close c fd2);
        (* projected names refuse unlink/rename-over *)
        let proj_name = "/proj/d000/" ^ "f000000" in
        check_err "projected unlink refused" Fsspec.Einval
          (Projfs.unlink c proj_name);
        check_ok "local unlink ok" (Projfs.unlink c dst))
  in
  ()

let test_e2e_copy_up_write () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~cat () in
        let c = Projfs.client pf in
        let rel = Provider.rel_path cat 5 in
        let path = "/proj/" ^ rel in
        let base = Option.get (Provider.content cat rel) in
        let fd = check_ok "open" (Projfs.open_ c path) in
        (* writing a cold placeholder hydrates first (copy-up), then
           overlays *)
        ignore (check_ok "write" (Projfs.write c fd ~off:3 "XYZ"));
        let got =
          check_ok "read" (Projfs.read c fd ~off:0 ~len:(String.length base))
        in
        let expected =
          String.sub base 0 3 ^ "XYZ"
          ^ String.sub base 6 (String.length base - 6)
        in
        Alcotest.(check string) "projected base under local overlay" expected
          got;
        Alcotest.(check int) "hydrated exactly once" 1
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        check_ok "close" (Projfs.close c fd))
  in
  ()

let test_e2e_prefetch () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~cat () in
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
        (* a subsequent open is warm: the prefetch worker populated the
           name cache *)
        let c = Projfs.client pf in
        let fd = check_ok "open" (Projfs.open_ c (List.hd paths)) in
        check_ok "close" (Projfs.close c fd);
        let cold, warm = Projfs.open_stats c in
        Alcotest.(check (pair int int)) "warm open after prefetch" (0, 1)
          (cold, warm))
  in
  ()

let test_e2e_hydration_failure_is_clean_and_retryable () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, net = boot ~cat () in
        let c = Projfs.client pf in
        let rel = Provider.rel_path cat 50 in
        let path = "/proj/" ^ rel in
        let expected = Option.get (Provider.content cat rel) in
        let fd = check_ok "open" (Projfs.open_ c path) in
        (* cut the wire: hydration must fail Eio, not hang or tear *)
        Fabric.set_faults net ~loss:0.999 ();
        check_err "clean failure" Fsspec.Eio
          (Projfs.read c fd ~off:0 ~len:8);
        Alcotest.(check int) "failure counted" 1
          (Msgvfs.hydration_failures (Projfs.fs_sys pf));
        Alcotest.(check int) "placeholder still cold" 0
          (Msgvfs.hydrations (Projfs.fs_sys pf));
        (* heal the wire: the same fd hydrates on retry *)
        Fabric.set_faults net ~loss:0.0 ();
        let got =
          check_ok "retry read"
            (Projfs.read c fd ~off:0 ~len:(String.length expected))
        in
        Alcotest.(check string) "retried hydration intact" expected got;
        check_ok "close" (Projfs.close c fd))
  in
  ()

let test_e2e_hydration_storm_reject_policy () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:16 (fun () ->
        let _fs, pf, _server, _net =
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
                  let c = Projfs.client pf in
                  let rel = Provider.rel_path cat i in
                  match Projfs.open_ c ("/proj/" ^ rel) with
                  | Error e -> results.(i) <- Error e
                  | Ok fd ->
                    results.(i) <- Projfs.read c fd ~off:0 ~len:256;
                    ignore (Projfs.close c fd)))
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
          let _fs, pf, _server, _net = boot ~cat () in
          let c = Projfs.client pf in
          for i = 0 to 7 do
            let path = "/proj/" ^ Provider.rel_path cat (i * 11) in
            match Projfs.open_ c path with
            | Error _ -> ()
            | Ok fd ->
              ignore (Projfs.read c fd ~off:0 ~len:64);
              ignore (Projfs.close c fd)
          done)
    in
    stats.Runstats.makespan
  in
  Alcotest.(check int) "same seed, same makespan" (once ()) (once ())

let test_e2e_cold_unlink_refused () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~cat () in
        let c = Projfs.client pf in
        (* nothing has listed d001 yet: the refusal must not depend on
           whether the directory was enumerated *)
        check_err "projected unlink refused on a cold directory"
          Fsspec.Einval
          (Projfs.unlink c "/proj/d001/f000033"))
  in
  ()

(* An old holder's close must not unpin the binding that replaced its
   invalidated entry: A opens, unlinks, B recreates and opens the same
   name, then A closes. *)
let test_e2e_release_after_rebind () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let (_ : Runstats.t) =
    run ~cores:8 (fun () ->
        let _fs, pf, _server, _net = boot ~namecache:4 ~cat () in
        let a = Projfs.client pf and b = Projfs.client pf in
        let path = "/tmp/x" in
        let state () =
          Option.map Namecache.state_name
            (Namecache.state_of (Projfs.cache pf) path)
        in
        check_ok "mkdir" (Projfs.mkdir a "/tmp");
        check_ok "create" (Projfs.create a path);
        let fd_a = check_ok "A opens" (Projfs.open_ a path) in
        check_ok "A unlinks" (Projfs.unlink a path);
        check_ok "B recreates" (Projfs.create b path);
        let fd_b = check_ok "B opens" (Projfs.open_ b path) in
        check_ok "A closes" (Projfs.close a fd_a);
        Alcotest.(check (option string)) "B's entry stays active"
          (Some "active") (state ());
        for i = 1 to 5 do
          check_err "negative lookup" Fsspec.Enoent
            (Projfs.open_ b (Printf.sprintf "/tmp/none%d" i))
        done;
        Alcotest.(check (option string)) "B's entry survives eviction"
          (Some "active") (state ());
        check_ok "B closes" (Projfs.close b fd_b))
  in
  ()

(* DESIGN D11: observability never moves virtual time.  The same VFS
   workload runs bare and with a trace ring plus an installed metrics
   registry; both runs must agree on every cycle, message and event,
   and return the same bytes. *)
let test_observer_effect () =
  let cat = Provider.catalog ~seed:3 ~nfiles:96 in
  let workload got () =
    let fs, pf, _server, _net = boot ~cat () in
    let k = Msgvfs.client fs in
    check_ok "mkdir" (Msgvfs.mkdir k "/tmp");
    check_ok "create" (Msgvfs.create k "/tmp/hello");
    let fd = check_ok "open" (Msgvfs.open_ k "/tmp/hello") in
    ignore (check_ok "write" (Msgvfs.write k fd ~off:0 "observed"));
    let local = check_ok "read" (Msgvfs.read k fd ~off:0 ~len:8) in
    let c = Projfs.client pf in
    let path = "/proj/" ^ Provider.rel_path cat 7 in
    let projected_read () =
      let fd = check_ok "open projected" (Projfs.open_ c path) in
      let data =
        check_ok "read projected" (Projfs.read c fd ~off:0 ~len:64)
      in
      check_ok "close projected" (Projfs.close c fd);
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
    [ ( "namecache",
        [ Alcotest.test_case "lru-eviction-order" `Quick
            test_nc_lru_eviction_order;
          Alcotest.test_case "active-never-evicts" `Quick
            test_nc_active_entries_never_evict;
          Alcotest.test_case "lifecycle" `Quick test_nc_lifecycle;
          Alcotest.test_case "negative-entries" `Quick
            test_nc_negative_entries;
          Alcotest.test_case "state-counts" `Quick test_nc_state_counts ] );
      ( "provider",
        [ Alcotest.test_case "catalog" `Quick test_provider_catalog;
          Alcotest.test_case "protocol" `Quick test_provider_protocol ] );
      ( "projfs",
        [ Alcotest.test_case "cold-read-correct" `Quick
            test_e2e_cold_read_correct;
          Alcotest.test_case "warm-open" `Quick test_e2e_warm_open_skips_walk;
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
          Alcotest.test_case "observer-effect" `Quick
            test_observer_effect ] ) ]
