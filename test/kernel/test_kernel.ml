(* Tests for the message-passing kernel: drivers, cache, allocators,
   vnode VFS (unit + model-based against the pure reference model and
   the lock-based baseline), notification, VM service, supervision. *)

module Machine = Chorus_machine.Machine
module Topology = Chorus_machine.Topology
module Cost = Chorus_machine.Cost
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine
module History = Chorus.History
module Svc = Chorus_svc.Svc
module Fsspec = Chorus_fsspec.Fsspec
module Fsmodel = Chorus_fsspec.Fsmodel
module Blockdev = Chorus_kernel.Blockdev
module Bcache = Chorus_kernel.Bcache
module Cgalloc = Chorus_kernel.Cgalloc
module Msgvfs = Chorus_kernel.Msgvfs
module Notify = Chorus_kernel.Notify
module Vmserv = Chorus_kernel.Vmserv
module Supervisor = Chorus_kernel.Supervisor
module Console = Chorus_kernel.Console
module Proc = Chorus_kernel.Proc
module Kernel = Chorus_kernel.Kernel
module Place = Chorus_kernel.Place
module Shvfs = Chorus_baseline.Shvfs
module Lin = Chorus_chaos.Lin
module Metrics = Chorus_obs.Metrics

let run ?(cores = 8) ?(policy = Policy.round_robin ()) ?(seed = 42) main =
  Runtime.run (Runtime.config ~policy ~seed (Machine.mesh ~cores)) main

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
(* Fsspec: the rules both file servers share                           *)

let errs =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Fsspec.err_to_string e))
    ( = )

let test_split_path () =
  let check p want =
    Alcotest.(check (result (list string) errs)) p want (Fsspec.split_path p)
  in
  check "/" (Ok []);
  check "/a/b" (Ok [ "a"; "b" ]);
  check "/a/" (Ok [ "a" ]);
  check "a/b" (Error Fsspec.Einval);
  check "" (Error Fsspec.Einval);
  check "/a//b" (Error Fsspec.Einval)

let test_split_parent () =
  let check p want =
    Alcotest.(check (result (pair (list string) string) errs))
      p want (Fsspec.split_parent p)
  in
  check "/" (Error Fsspec.Einval);
  check "a/b" (Error Fsspec.Einval);
  check "/a" (Ok ([], "a"));
  check "/a/b/c" (Ok ([ "a"; "b" ], "c"))

let test_fold_range () =
  let visits ~off ~len =
    Fsspec.fold_range ~off ~len
      (fun acc ~bidx ~boff ~pos ~chunk -> Ok ([ bidx; boff; pos; chunk ] :: acc))
      []
    |> Result.get_ok |> List.rev
  in
  let check = Alcotest.(check (list (list int))) in
  check "straddles a block boundary"
    [ [ 0; 4090; 0; 6 ]; [ 1; 0; 6; 4 ] ]
    (visits ~off:4090 ~len:10);
  check "empty range" [] (visits ~off:4090 ~len:0);
  let calls = ref 0 in
  let r =
    Fsspec.fold_range ~off:4090 ~len:10
      (fun () ~bidx:_ ~boff:_ ~pos:_ ~chunk:_ ->
        incr calls;
        Error "stop")
      ()
  in
  Alcotest.(check (result unit string)) "first error returned" (Error "stop") r;
  Alcotest.(check int) "no chunk after the error" 1 !calls

let test_evict_lru () =
  let bufs = Hashtbl.create 4 in
  List.iter
    (fun (blk, last_use) ->
      Hashtbl.replace bufs blk
        { Fsspec.data = Bytes.make 1 (Char.chr (48 + blk)); dirty = true;
          last_use })
    [ (1, 30); (2, 10); (3, 20) ];
  let written = ref [] in
  let write_back blk data = written := (blk, Bytes.to_string data) :: !written in
  let cached () = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) bufs []) in
  Fsspec.evict_lru bufs ~capacity:4 ~write_back;
  Alcotest.(check (list int)) "below capacity keeps all" [ 1; 2; 3 ] (cached ());
  Alcotest.(check (list (pair int string))) "nothing written" [] !written;
  Fsspec.evict_lru bufs ~capacity:3 ~write_back;
  Alcotest.(check (list int)) "least recently used gone" [ 1; 3 ] (cached ());
  Alcotest.(check (list (pair int string))) "victim written back once"
    [ (2, "2") ] !written;
  (Hashtbl.find bufs 3).dirty <- false;
  Fsspec.evict_lru bufs ~capacity:2 ~write_back;
  Alcotest.(check (list int)) "clean victim gone" [ 1 ] (cached ());
  Alcotest.(check int) "clean victim not written" 1 (List.length !written)

(* ------------------------------------------------------------------ *)
(* Blockdev                                                            *)

let test_blockdev_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let data = Bytes.make Fsspec.block_size 'x' in
        Blockdev.write dev 7 data;
        let back = Blockdev.read dev 7 in
        Alcotest.(check bytes) "block roundtrip" data back;
        let zero = Blockdev.read dev 8 in
        Alcotest.(check char) "unwritten zero" '\000' (Bytes.get zero 0))
  in
  ()

let test_blockdev_read_faults_and_retry () =
  (* transient read-error windows: the device fails reads with
     probability p, the cache retries with backoff until the data
     comes back, and both sides count what happened *)
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        for b = 0 to 9 do
          Blockdev.write dev b
            (Bytes.make Fsspec.block_size (Char.chr (Char.code 'a' + b)))
        done;
        let cache = Bcache.start ~shards:2 ~capacity:4 ~dev () in
        (match Blockdev.set_read_fault dev ~p:1.0 () with
        | () -> Alcotest.fail "p = 1.0 accepted (retry could never end)"
        | exception Invalid_argument _ -> ());
        Blockdev.set_read_fault dev ~p:0.5 ~seed:7 ();
        for b = 0 to 9 do
          let s = Bcache.get_range cache b ~off:0 ~len:4 in
          Alcotest.(check string) "data survives transient read errors"
            (String.make 4 (Char.chr (Char.code 'a' + b)))
            s
        done;
        Alcotest.(check bool) "device reported errors" true
          (Blockdev.read_errors dev > 0);
        Alcotest.(check bool) "cache retried through them" true
          (Bcache.read_retries cache > 0);
        Blockdev.set_read_fault dev ();
        (match Blockdev.read_result dev 0 with
        | Ok data ->
          Alcotest.(check char) "fault window cleared" 'a' (Bytes.get data 0)
        | Error `Io_error -> Alcotest.fail "error after window cleared"))
  in
  ()

let test_blockdev_single_threaded () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let fibers =
          List.init 16 (fun i ->
              Fiber.spawn (fun () ->
                  let d = Bytes.make Fsspec.block_size (Char.chr (65 + i)) in
                  Blockdev.write dev (i * 100) d;
                  ignore (Blockdev.read dev (i * 100))))
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers;
        Alcotest.(check int) "driver body never concurrent" 1
          (Blockdev.max_concurrency dev);
        Alcotest.(check int) "all writes" 16 (Blockdev.writes dev))
  in
  ()

let test_blockdev_seek_costs () =
  (* sequential access must be cheaper than scattered access *)
  let go blocks =
    run (fun () ->
        let dev = Blockdev.start () in
        List.iter (fun b -> ignore (Blockdev.read dev b)) blocks)
  in
  let seq = go (List.init 50 (fun i -> i)) in
  let scattered = go (List.init 50 (fun i -> i * 977 mod 10_000)) in
  Alcotest.(check bool) "seeks cost" true
    (scattered.Runstats.makespan > seq.Runstats.makespan)

(* ------------------------------------------------------------------ *)
(* Bcache                                                              *)

let test_bcache_roundtrip () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~shards:4 ~capacity:64 ~dev () in
        Bcache.put bc 3 ~off:100 "hello";
        let s = Bcache.get_range bc 3 ~off:0 ~len:Fsspec.block_size in
        Alcotest.(check string) "cached write visible" "hello"
          (String.sub s 100 5);
        Alcotest.(check int) "shards running" 4 (Bcache.shards bc))
  in
  ()

let test_bcache_eviction_writeback () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        (* tiny cache: 1 block per shard, 2 shards *)
        let bc = Bcache.start ~shards:2 ~capacity:2 ~dev () in
        Bcache.put bc 0 ~off:0 "persist-me";
        (* push enough same-shard blocks through to evict block 0 *)
        for i = 1 to 8 do
          ignore (Bcache.get_range bc (i * 2) ~off:0 ~len:Fsspec.block_size)
        done;
        Alcotest.(check bool) "dirty block reached the device" true
          (Blockdev.writes dev >= 1);
        (* refetch: must come back from the device intact *)
        let s = Bcache.get_range bc 0 ~off:0 ~len:Fsspec.block_size in
        Alcotest.(check string) "write-back preserved data" "persist-me"
          (String.sub s 0 10))
  in
  ()

let test_bcache_zero_evicts () =
  (* zero-fill is a fill like any other: one block past a shard's
     capacity evicts the least recently used buffer, writing its zeroes
     back over the stale device copy *)
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        Blockdev.write dev 0 (Bytes.make Fsspec.block_size 's');
        let bc = Bcache.start ~shards:1 ~capacity:2 ~dev () in
        List.iter (Bcache.zero bc) [ 0; 1; 2 ];
        Alcotest.(check int) "no miss yet" 0 (Bcache.misses bc);
        Alcotest.(check string) "evicted buffer comes back as zeroes"
          (String.make 4 '\000')
          (Bcache.get_range bc 0 ~off:0 ~len:4);
        Alcotest.(check int) "evicted buffer missed" 1 (Bcache.misses bc))
  in
  ()

let test_bcache_spreads_group_blocks () =
  (* E3's 1024-core file blocks: the first two blocks of each of 64
     allocation groups, 1,024 blocks apart.  On 128 shards of capacity
     8 they all stay cached. *)
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~shards:128 ~capacity:1024 ~dev () in
        let blocks =
          List.concat (List.init 64 (fun g -> [ g * 1024; (g * 1024) + 1 ]))
        in
        List.iter (Bcache.zero bc) blocks;
        List.iter (fun b -> ignore (Bcache.get_range bc b ~off:0 ~len:1)) blocks;
        Alcotest.(check int) "every block still cached" 0 (Bcache.misses bc))
  in
  ()

let test_bcache_hit_miss_counters () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~shards:2 ~capacity:32 ~dev () in
        ignore (Bcache.get_range bc 5 ~off:0 ~len:Fsspec.block_size);
        ignore (Bcache.get_range bc 5 ~off:0 ~len:Fsspec.block_size);
        ignore (Bcache.get_range bc 5 ~off:0 ~len:Fsspec.block_size);
        Alcotest.(check int) "one miss" 1 (Bcache.misses bc);
        Alcotest.(check int) "two hits" 2 (Bcache.hits bc))
  in
  ()

let test_bcache_get_range () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~shards:2 ~capacity:16 ~dev () in
        Bcache.put bc 9 ~off:50 "0123456789";
        Alcotest.(check string) "inner range" "34567"
          (Bcache.get_range bc 9 ~off:53 ~len:5);
        (* range clamped at the block boundary *)
        let tail = Bcache.get_range bc 9 ~off:(Fsspec.block_size - 3) ~len:10 in
        Alcotest.(check int) "clamped" 3 (String.length tail))
  in
  ()

let test_bcache_refill_failure_keeps_shard () =
  (* a refill that exhausts its retries fails the request, not the
     shard fiber: the caller gets Io_error, and once the fault clears
     the same shard serves the same block *)
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        Blockdev.write dev 3 (Bytes.make Fsspec.block_size 'z');
        let bc = Bcache.start ~shards:2 ~capacity:4 ~dev () in
        Blockdev.set_read_fault dev ~p:0.999 ~seed:5 ();
        (match Bcache.get_range bc 3 ~off:0 ~len:4 with
        | _ -> Alcotest.fail "refill succeeded under a 0.999 read fault"
        | exception Blockdev.Io_error -> ());
        Alcotest.(check int) "retried up to the bound" 9
          (Bcache.read_retries bc);
        Blockdev.set_read_fault dev ();
        Alcotest.(check string) "shard still serving" "zzzz"
          (Bcache.get_range bc 3 ~off:0 ~len:4))
  in
  ()

let test_blockdev_priority_accepted () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev =
          Blockdev.start ~priority:Fiber.High ()
        in
        Blockdev.write dev 1 (Bytes.make Fsspec.block_size 'p');
        Alcotest.(check char) "works at high priority" 'p'
          (Bytes.get (Blockdev.read dev 1) 0))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Cgalloc                                                             *)

let test_cgalloc_unique () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Cgalloc.start ~groups:4 ~nblocks:64 () in
        let seen = Hashtbl.create 64 in
        for i = 0 to 63 do
          match Cgalloc.alloc a ~hint:i with
          | Some b ->
            Alcotest.(check bool)
              (Printf.sprintf "block %d fresh" b)
              false (Hashtbl.mem seen b);
            Hashtbl.replace seen b ()
          | None -> Alcotest.fail "premature exhaustion"
        done;
        Alcotest.(check (option int)) "exhausted" None (Cgalloc.alloc a ~hint:0);
        Alcotest.(check int) "all allocated" 64 (Cgalloc.allocated a);
        (* free one and get it back *)
        Cgalloc.free a 17;
        (match Cgalloc.alloc a ~hint:17 with
        | Some _ -> ()
        | None -> Alcotest.fail "free block not reusable");
        ())
  in
  ()

(* ------------------------------------------------------------------ *)
(* Msgvfs semantics                                                    *)

let mount_fs ?(plumbing = true) () =
  let dev = Blockdev.start () in
  let bc = Bcache.start ~dev () in
  let alloc = Cgalloc.start ~nblocks:4096 () in
  Msgvfs.mount { Msgvfs.plumbing; dispatchers = 2 } ~bcache:bc ~alloc

let boot_fs ?plumbing () = Msgvfs.client (mount_fs ?plumbing ())

(* The core of group [g]'s name cache on the running machine. *)
let cache_core g = Place.cache (Place.current ()) g

(* The [i]-th core of group [g] on the running machine, in id order. *)
let core_in_group g i =
  let p = Place.current () in
  let cores = Machine.cores (Engine.machine (Engine.current ())) in
  List.nth
    (List.filter (fun c -> Place.group p c = g) (List.init cores Fun.id))
    i

(* Check that [cores] lie in the groups [want], in order. *)
let check_groups what want cores =
  let p = Place.current () in
  Alcotest.(check (list int)) what want (List.map (Place.group p) cores)

(* The dispatcher path's virtual costs, pinned: every operation of the
   client API once, each routed through one of two dispatchers. *)
let test_dispatcher_costs_pinned () =
  let stats =
    run (fun () ->
        let fs = boot_fs ~plumbing:false () in
        check_ok "mkdir" (Msgvfs.mkdir fs "/d");
        check_ok "create" (Msgvfs.create fs "/d/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/d/f") in
        Alcotest.(check int) "write" 5
          (check_ok "write" (Msgvfs.write fs fd ~off:0 "hello"));
        Alcotest.(check string) "read" "hello"
          (check_ok "read" (Msgvfs.read fs fd ~off:0 ~len:5));
        Alcotest.(check int) "stat" 5
          (check_ok "stat" (Msgvfs.stat fs "/d/f")).Fsspec.size;
        Alcotest.(check (list string)) "readdir" [ "f" ]
          (check_ok "readdir" (Msgvfs.readdir fs "/d"));
        check_ok "rename" (Msgvfs.rename fs "/d/f" "/d/g");
        check_ok "unlink" (Msgvfs.unlink fs "/d/g"))
  in
  Alcotest.(check (list int)) "makespan, msgs, words_copied"
    [ 7870; 67; 189 ]
    [ stats.Runstats.makespan; stats.Runstats.msgs;
      stats.Runstats.words_copied ]

(* The plumbed data path, pinned in messages (DESIGN D18): a read or an
   overwrite of bytes in one block goes client -> vnode -> cache shard
   -> client, three messages; a read of two blocks stays in the vnode,
   which calls each block's shard in turn, six. *)
let test_plumbed_data_path_msgs () =
  let (_ : Runstats.t) =
    run (fun () ->
        let fs = boot_fs () in
        check_ok "create" (Msgvfs.create fs "/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
        ignore
          (check_ok "write"
             (Msgvfs.write fs fd ~off:0 (String.make (Fsspec.block_size + 8) 'a')));
        let msgs what f =
          let c = Engine.counters (Engine.current ()) in
          let before = c.Engine.msgs in
          ignore (check_ok what (f ()));
          c.Engine.msgs - before
        in
        Alcotest.(check int) "one-block read" 3
          (msgs "read" (fun () -> Msgvfs.read fs fd ~off:0 ~len:8));
        Alcotest.(check int) "one-block overwrite" 3
          (msgs "overwrite" (fun () -> Msgvfs.write fs fd ~off:4 "bb"));
        Alcotest.(check int) "two-block read" 6
          (msgs "read" (fun () ->
               Msgvfs.read fs fd ~off:(Fsspec.block_size - 4) ~len:8)))
  in
  ()

(* A block-cache fill that gives up is the op's [Eio], on either path,
   and the vnode keeps serving: once the fault clears, the same
   descriptors read the data back.  One shard of one block, so every
   block but the last one touched is evicted. *)
let test_fs_cache_fill_failure_is_eio () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bcache = Bcache.start ~shards:1 ~capacity:1 ~dev () in
        let alloc = Cgalloc.start ~nblocks:64 () in
        let fs =
          Msgvfs.client (Msgvfs.mount Msgvfs.default_config ~bcache ~alloc)
        in
        let file path ~off data =
          check_ok "create" (Msgvfs.create fs path);
          let fd = check_ok "open" (Msgvfs.open_ fs path) in
          ignore (check_ok "write" (Msgvfs.write fs fd ~off data));
          fd
        in
        let a = file "/a" ~off:0 "aaaa" in
        let b = file "/b" ~off:(Fsspec.block_size - 4) "bbbbBBBB" in
        let two_blocks () =
          Msgvfs.read fs b ~off:(Fsspec.block_size - 4) ~len:8
        in
        Blockdev.set_read_fault dev ~p:0.999 ~seed:5 ();
        check_err "one-block read" Fsspec.Eio (Msgvfs.read fs a ~off:0 ~len:4);
        check_err "two-block read" Fsspec.Eio (two_blocks ());
        check_err "overwrite" Fsspec.Eio (Msgvfs.write fs a ~off:0 "xx");
        check_err "extending write" Fsspec.Eio (Msgvfs.write fs a ~off:2 "xxxx");
        Alcotest.(check int) "size unchanged" 4
          (check_ok "stat" (Msgvfs.stat fs "/a")).Fsspec.size;
        Blockdev.set_read_fault dev ();
        Alcotest.(check string) "a back" "aaaa"
          (check_ok "read a" (Msgvfs.read fs a ~off:0 ~len:4));
        Alcotest.(check string) "b back" "bbbbBBBB"
          (check_ok "read b" (two_blocks ()));
        check_ok "unlink a" (Msgvfs.unlink fs "/a");
        check_ok "unlink b" (Msgvfs.unlink fs "/b");
        Alcotest.(check int) "no block leaked" 0 (Cgalloc.allocated alloc))
  in
  ()

let fs_semantics_suite plumbing () =
  let (_ : Runstats.t) =
    run (fun () ->
        let fs = boot_fs ~plumbing () in
        check_ok "mkdir /a" (Msgvfs.mkdir fs "/a");
        check_ok "mkdir /a/b" (Msgvfs.mkdir fs "/a/b");
        check_err "mkdir dup" Fsspec.Eexist (Msgvfs.mkdir fs "/a");
        check_ok "create" (Msgvfs.create fs "/a/b/f");
        check_err "create in missing dir" Fsspec.Enoent
          (Msgvfs.create fs "/nope/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/a/b/f") in
        check_err "open dir" Fsspec.Eisdir (Msgvfs.open_ fs "/a");
        check_err "open missing" Fsspec.Enoent (Msgvfs.open_ fs "/a/zz");
        let n = check_ok "write" (Msgvfs.write fs fd ~off:0 "hello world") in
        Alcotest.(check int) "wrote all" 11 n;
        let s = check_ok "read" (Msgvfs.read fs fd ~off:0 ~len:11) in
        Alcotest.(check string) "read back" "hello world" s;
        let s = check_ok "read middle" (Msgvfs.read fs fd ~off:6 ~len:5) in
        Alcotest.(check string) "offset read" "world" s;
        let s = check_ok "read past eof" (Msgvfs.read fs fd ~off:100 ~len:5) in
        Alcotest.(check string) "eof empty" "" s;
        (* cross-block write *)
        let big = String.init 10_000 (fun i -> Char.chr (33 + (i mod 90))) in
        let n = check_ok "big write" (Msgvfs.write fs fd ~off:1000 big) in
        Alcotest.(check int) "big wrote" 10_000 n;
        let back = check_ok "big read" (Msgvfs.read fs fd ~off:1000 ~len:10_000) in
        Alcotest.(check string) "big roundtrip" big back;
        let st = check_ok "stat file" (Msgvfs.stat fs "/a/b/f") in
        Alcotest.(check int) "size" 11_000 st.Fsspec.size;
        Alcotest.(check bool) "blocks allocated" true (st.Fsspec.blocks >= 3);
        (* sparse hole reads back as zeroes *)
        check_ok "create sparse" (Msgvfs.create fs "/a/sparse") |> ignore;
        let sfd = check_ok "open sparse" (Msgvfs.open_ fs "/a/sparse") in
        ignore (check_ok "sparse write" (Msgvfs.write fs sfd ~off:9000 "end"));
        let hole = check_ok "hole read" (Msgvfs.read fs sfd ~off:100 ~len:10) in
        Alcotest.(check string) "zero hole" (String.make 10 '\000') hole;
        (* readdir *)
        let names = check_ok "readdir" (Msgvfs.readdir fs "/a") in
        Alcotest.(check (list string)) "entries" [ "b"; "sparse" ] names;
        check_err "readdir of file" Fsspec.Enotdir (Msgvfs.readdir fs "/a/b/f");
        (* unlink semantics *)
        check_err "rmdir nonempty" Fsspec.Enotempty (Msgvfs.unlink fs "/a");
        check_ok "close" (Msgvfs.close fs fd);
        check_ok "unlink file" (Msgvfs.unlink fs "/a/b/f");
        check_err "stat gone" Fsspec.Enoent (Msgvfs.stat fs "/a/b/f");
        check_ok "rmdir" (Msgvfs.unlink fs "/a/b");
        check_err "unlink twice" Fsspec.Enoent (Msgvfs.unlink fs "/a/b");
        (* rename *)
        check_ok "mkdir /r1" (Msgvfs.mkdir fs "/r1");
        check_ok "mkdir /r2" (Msgvfs.mkdir fs "/r2");
        check_ok "create /r1/x" (Msgvfs.create fs "/r1/x");
        let xfd = check_ok "open /r1/x" (Msgvfs.open_ fs "/r1/x") in
        ignore (check_ok "write x" (Msgvfs.write fs xfd ~off:0 "payload"));
        check_ok "rename file" (Msgvfs.rename fs "/r1/x" "/r2/y");
        check_err "old name gone" Fsspec.Enoent (Msgvfs.stat fs "/r1/x");
        let st = check_ok "new name stat" (Msgvfs.stat fs "/r2/y") in
        Alcotest.(check int) "size moved" 7 st.Fsspec.size;
        Alcotest.(check string) "open handle survives rename" "payload"
          (check_ok "read via old fd" (Msgvfs.read fs xfd ~off:0 ~len:7));
        check_ok "rename dir" (Msgvfs.rename fs "/r2" "/r1/sub");
        let names = check_ok "moved dir listing" (Msgvfs.readdir fs "/r1/sub") in
        Alcotest.(check (list string)) "dir contents moved" [ "y" ] names;
        check_err "rename missing" Fsspec.Enoent
          (Msgvfs.rename fs "/nope" "/zz");
        check_ok "create /c1" (Msgvfs.create fs "/c1");
        check_ok "create /c2" (Msgvfs.create fs "/c2");
        check_err "rename onto existing" Fsspec.Eexist
          (Msgvfs.rename fs "/c1" "/c2");
        check_err "rename into self" Fsspec.Einval
          (Msgvfs.rename fs "/r1" "/r1/sub/deep");
        (* walking through a file *)
        check_ok "create f2" (Msgvfs.create fs "/f2");
        check_err "file as dir" Fsspec.Enotdir (Msgvfs.stat fs "/f2/x");
        check_err "bad fd" Fsspec.Ebadf (Msgvfs.read fs 999 ~off:0 ~len:1))
  in
  ()

let test_fs_unlink_open_handle () =
  (* documented deviation: operations through handles to retired
     vnodes fail Ebadf *)
  let (_ : Runstats.t) =
    run (fun () ->
        let fs = boot_fs () in
        check_ok "create" (Msgvfs.create fs "/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
        ignore (check_ok "write" (Msgvfs.write fs fd ~off:0 "x"));
        check_ok "unlink" (Msgvfs.unlink fs "/f");
        check_err "read after retire" Fsspec.Ebadf
          (Msgvfs.read fs fd ~off:0 ~len:1))
  in
  ()

let test_fs_concurrent_clients () =
  let (_ : Runstats.t) =
    run ~cores:16 (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~dev () in
        let alloc = Cgalloc.start ~nblocks:8192 () in
        let sys = Msgvfs.mount Msgvfs.default_config ~bcache:bc ~alloc in
        check_ok "mkdir" (Msgvfs.mkdir (Msgvfs.client sys) "/shared");
        let workers =
          List.init 8 (fun i ->
              Fiber.spawn (fun () ->
                  let fs = Msgvfs.client sys in
                  let path = Printf.sprintf "/shared/w%d" i in
                  check_ok "create" (Msgvfs.create fs path);
                  let fd = check_ok "open" (Msgvfs.open_ fs path) in
                  let payload = Printf.sprintf "worker-%d-data" i in
                  for k = 0 to 9 do
                    ignore
                      (check_ok "write"
                         (Msgvfs.write fs fd
                            ~off:(k * String.length payload)
                            payload))
                  done;
                  let s =
                    check_ok "read"
                      (Msgvfs.read fs fd ~off:0
                         ~len:(10 * String.length payload))
                  in
                  Alcotest.(check bool)
                    "own data intact" true
                    (String.sub s 0 (String.length payload) = payload)))
        in
        List.iter (fun f -> ignore (Fiber.join f)) workers;
        let fs = Msgvfs.client sys in
        let names = check_ok "readdir" (Msgvfs.readdir fs "/shared") in
        Alcotest.(check int) "all files present" 8 (List.length names))
  in
  ()

let test_name_cache_counts () =
  let caches cores =
    let n = ref (-1) in
    let (_ : Runstats.t) =
      run ~cores (fun () -> n := Msgvfs.caches (mount_fs ()))
    in
    !n
  in
  Alcotest.(check int) "16 cores: no cache" 0 (caches 16);
  Alcotest.(check int) "64 cores: 4 groups, 4 caches" 4 (caches 64);
  Alcotest.(check int) "1024 cores: 64 groups, 64 caches" 64 (caches 1024)

let test_vnode_fibers_spawned () =
  let (_ : Runstats.t) =
    run (fun () ->
        let dev = Blockdev.start () in
        let bc = Bcache.start ~dev () in
        let alloc = Cgalloc.start ~nblocks:4096 () in
        let sys = Msgvfs.mount Msgvfs.default_config ~bcache:bc ~alloc in
        let fs = Msgvfs.client sys in
        let before = Msgvfs.live_vnodes sys in
        check_ok "mkdir" (Msgvfs.mkdir fs "/d");
        for i = 0 to 9 do
          check_ok "create" (Msgvfs.create fs (Printf.sprintf "/d/f%d" i))
        done;
        Alcotest.(check int) "one fiber per vnode" (before + 11)
          (Msgvfs.live_vnodes sys);
        check_ok "unlink" (Msgvfs.unlink fs "/d/f0");
        Alcotest.(check int) "retire reduces" (before + 10)
          (Msgvfs.live_vnodes sys))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Model-based testing: random op sequences must behave identically on
   the reference model, the message VFS (both modes) and the baseline *)

type op =
  | Op_rename of string * string
  | Op_mkdir of string
  | Op_create of string
  | Op_open of string
  | Op_close of int
  | Op_read of int * int * int
  | Op_write of int * int * string
  | Op_stat of string
  | Op_unlink of string
  | Op_readdir of string

let paths =
  [| "/d0"; "/d1"; "/d0/d2"; "/f0"; "/f1"; "/d0/f2"; "/d0/d2/f3"; "/d1/f4" |]

let gen_op =
  let open QCheck.Gen in
  let path = map (fun i -> paths.(i mod Array.length paths)) small_nat in
  let slot = int_range 0 3 in
  let data =
    map
      (fun (c, n) -> String.make (1 + (n mod 2000)) (Char.chr (97 + (c mod 26))))
      (pair small_nat small_nat)
  in
  frequency
    [ (2, map (fun p -> Op_mkdir p) path);
      (3, map (fun p -> Op_create p) path);
      (3, map (fun p -> Op_open p) path);
      (1, map (fun s -> Op_close s) slot);
      (* offsets start at -2, so a bad offset meets both good and bad
         descriptors *)
      (4, map (fun (s, (o, l)) -> Op_read (s, (o mod 5000) - 2, l mod 3000))
           (pair slot (pair small_nat small_nat)));
      (4, map (fun (s, (o, d)) -> Op_write (s, (o mod 5000) - 2, d))
           (pair slot (pair small_nat data)));
      (2, map (fun p -> Op_stat p) path);
      (2, map (fun p -> Op_unlink p) path);
      (2, map (fun p -> Op_readdir p) path);
      (2, map (fun (a, b) -> Op_rename (a, b)) (pair path path)) ]

let show_op = function
  | Op_rename (a, b) -> Printf.sprintf "rename %s -> %s" a b
  | Op_mkdir p -> "mkdir " ^ p
  | Op_create p -> "create " ^ p
  | Op_open p -> "open " ^ p
  | Op_close s -> Printf.sprintf "close #%d" s
  | Op_read (s, o, l) -> Printf.sprintf "read #%d off=%d len=%d" s o l
  | Op_write (s, o, d) ->
    Printf.sprintf "write #%d off=%d len=%d" s o (String.length d)
  | Op_stat p -> "stat " ^ p
  | Op_unlink p -> "unlink " ^ p
  | Op_readdir p -> "readdir " ^ p

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (1 -- 40) gen_op)

(* Run one op against a filesystem; outcomes are compared as strings.
   Handle tables are kept outside so fd numbering differences between
   implementations cannot cause false mismatches. *)
module Driver (F : Fsspec.S) = struct
  type state = {
    fs : F.t;
    handles : (int * string) option array;  (** slot -> fd, path *)
  }

  let make fs = { fs; handles = Array.make 4 None }

  let open_paths st =
    Array.to_list st.handles
    |> List.filter_map (fun h -> Option.map snd h)

  (* reads and writes on an empty slot go through a descriptor no
     implementation has handed out *)
  let slot_fd st s = match st.handles.(s) with Some (fd, _) -> fd | None -> 999

  let apply st op =
    match op with
    | Op_mkdir p -> (
      match F.mkdir st.fs p with
      | Ok () -> "ok"
      | Error e -> Fsspec.err_to_string e)
    | Op_create p -> (
      match F.create st.fs p with
      | Ok () -> "ok"
      | Error e -> Fsspec.err_to_string e)
    | Op_open p -> (
      match F.open_ st.fs p with
      | Ok fd ->
        let slot = ref (-1) in
        Array.iteri
          (fun i h -> if !slot < 0 && h = None then slot := i)
          st.handles;
        if !slot >= 0 then st.handles.(!slot) <- Some (fd, p)
        else ignore (F.close st.fs fd);
        "opened"
      | Error e -> Fsspec.err_to_string e)
    | Op_close s -> (
      match st.handles.(s) with
      | None -> "no-slot"
      | Some (fd, _) ->
        st.handles.(s) <- None;
        (match F.close st.fs fd with
        | Ok () -> "ok"
        | Error e -> Fsspec.err_to_string e))
    | Op_read (s, off, len) -> (
      match F.read st.fs (slot_fd st s) ~off ~len with
      | Ok data -> Printf.sprintf "data:%d:%d" (String.length data)
                     (Hashtbl.hash data)
      | Error e -> Fsspec.err_to_string e)
    | Op_write (s, off, data) -> (
      match F.write st.fs (slot_fd st s) ~off data with
      | Ok n -> Printf.sprintf "wrote:%d" n
      | Error e -> Fsspec.err_to_string e)
    | Op_stat p -> (
      match F.stat st.fs p with
      | Ok st_ ->
        Printf.sprintf "stat:%s:%d"
          (match st_.Fsspec.kind with Fsspec.File -> "f" | Fsspec.Dir -> "d")
          st_.Fsspec.size
      | Error e -> Fsspec.err_to_string e)
    | Op_unlink p ->
      (* avoid the divergent unlink-while-open corner (documented
         semantic difference); report it skipped instead *)
      if List.mem p (open_paths st) then "skipped-open"
      else (
        match F.unlink st.fs p with
        | Ok () -> "ok"
        | Error e -> Fsspec.err_to_string e)
    | Op_readdir p -> (
      match F.readdir st.fs p with
      | Ok names -> "dir:" ^ String.concat "," names
      | Error e -> Fsspec.err_to_string e)
    | Op_rename (a, b) ->
      (* moving a path that has an open handle, or a directory above
         one, keeps handles alive identically in all implementations,
         but moving it *under a new name* makes later path-based ops
         diverge from our handle bookkeeping; simplest sound rule:
         skip when any open handle's path would be affected *)
      if
        List.exists
          (fun p ->
            Fsspec.path_inside ~src:a ~dst:p
            || Fsspec.path_inside ~src:b ~dst:p)
          (open_paths st)
      then "skipped-open"
      else (
        match F.rename st.fs a b with
        | Ok () -> "ok"
        | Error e -> Fsspec.err_to_string e)
end

module Model_driver = Driver (Fsmodel)
module Msg_driver = Driver (Msgvfs)
module Sh_driver = Driver (Shvfs)

(* With [~groups], op k runs in a fiber on the core of group
   k mod groups's name cache, joined before op k + 1 starts: a change
   made from one group is followed by walks from the others, which the
   message kernel serves from different name caches.  A run without a
   mismatch checks that its ops ran in groups 0 to groups - 1 (or in
   as many as there are ops). *)
let model_check_against ?cores ?policy ?groups ?(count = 60) name apply_impl =
  QCheck.Test.make ~name ~count arbitrary_ops (fun ops ->
      let mismatch = ref None in
      let (_ : Runstats.t) =
        run ?cores ?policy (fun () ->
            let model = Model_driver.make (Fsmodel.make ()) in
            let impl = apply_impl () in
            let ran = ref [] in
            let apply k op =
              match groups with
              | None -> impl op
              | Some g ->
                let got = ref "" in
                let f =
                  Fiber.spawn ~on:(cache_core (k mod g)) (fun () ->
                      ran := Fiber.core (Fiber.self ()) :: !ran;
                      got := impl op)
                in
                ignore (Fiber.join f);
                !got
            in
            List.iteri
              (fun k op ->
                if !mismatch = None then begin
                  let expect = Model_driver.apply model op in
                  let got = apply k op in
                  if expect <> got then
                    mismatch := Some (show_op op, expect, got)
                end)
              ops;
            match groups with
            | Some g when !mismatch = None ->
              let p = Place.current () in
              Alcotest.(check (list int))
                "groups the ops ran in"
                (List.init (min g (List.length ops)) Fun.id)
                (List.sort_uniq compare (List.map (Place.group p) !ran))
            | _ -> ())
      in
      match !mismatch with
      | None -> true
      | Some (op, expect, got) ->
        QCheck.Test.fail_reportf "op %s: model=%s impl=%s" op expect got)

let prop_msgvfs_matches_model =
  model_check_against "msgvfs (plumbed) == reference model" (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:true ()) in
      Msg_driver.apply st)

let prop_msgvfs_dispatch_matches_model =
  model_check_against "msgvfs (dispatchers) == reference model" (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:false ()) in
      Msg_driver.apply st)

(* 64 cores: 4 groups, so 4 name caches.  Random placement spreads the
   root and the two dispatchers over the groups, so the dispatcher path
   crosses caches too. *)
let cached_check =
  model_check_against ~cores:64 ~policy:Policy.random ~groups:4 ~count:200

let prop_msgvfs_caches_match_model =
  cached_check
    "msgvfs (plumbed, 64 cores, read-through name caches) == reference model"
    (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:true ()) in
      Msg_driver.apply st)

let prop_msgvfs_dispatch_caches_match_model =
  cached_check
    "msgvfs (dispatchers, 64 cores, read-through name caches) == reference \
     model"
    (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:false ()) in
      Msg_driver.apply st)

let prop_shvfs_matches_model =
  model_check_against "baseline shvfs == reference model" (fun () ->
      let sys = Shvfs.make Shvfs.default_config in
      let st = Sh_driver.make (Shvfs.client sys) in
      Sh_driver.apply st)

(* ------------------------------------------------------------------ *)
(* Concurrent file data (DESIGN D18)                                   *)

(* Clients that share one file of two blocks.  Each block is a
   register: its value is the 8-byte tag the last write put at the
   block's start (a write of block 0 covers all of it, so its last 8
   bytes hold the same tag).  One-block reads and overwrites go to the
   cache shard; two-block reads and writes, and writes that extend the
   file inside block 1, are served in the vnode. *)
type data_op =
  | Read_block of int  (** the first 8 bytes of block 0 or 1 *)
  | Write_block of int  (** all of block 0, or block 1's first 8 bytes *)
  | Read_both  (** the last 8 bytes of block 0 and the first 8 of block 1 *)
  | Write_both  (** all of block 0 and block 1's first 8 bytes *)
  | Extend  (** block 1 from its start, one tag past the longest so far *)

let show_data_op = function
  | Read_block b -> Printf.sprintf "read b%d" b
  | Write_block b -> Printf.sprintf "write b%d" b
  | Read_both -> "read b0+b1"
  | Write_both -> "write b0+b1"
  | Extend -> "extend"

(* 8 clients of 6 ops: with the two initial writes, at most 50
   register ops a block, under Lin's bound of 60 *)
let arbitrary_data_runs =
  let open QCheck.Gen in
  let op =
    frequency
      [ (3, map (fun b -> Read_block b) (int_range 0 1));
        (3, map (fun b -> Write_block b) (int_range 0 1));
        (1, return Read_both);
        (1, return Write_both);
        (1, return Extend) ]
  in
  QCheck.make
    ~print:(fun (seed, clients) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat " | "
           (List.map
              (fun ops -> String.concat "; " (List.map show_data_op ops))
              clients)))
    (pair small_nat (list_repeat 8 (list_repeat 6 op)))

let tags tag n = String.concat "" (List.init n (fun _ -> tag))

(* Wait for a fiber, re-raising the exception that crashed it. *)
let join f =
  match Fiber.join f with
  | Engine.Crashed e -> raise e
  | Engine.Normal | Engine.Killed -> ()

(* Run [op] through [fd], recording one register op per block it
   touches. *)
let apply_data_op hist ~proc fs fd ~fresh ~extent op =
  let bs = Fsspec.block_size in
  let write keys ~off ~copies =
    let tag = fresh () in
    let ops =
      List.map
        (fun key -> History.invoke hist ~proc ~kind:`Write ~key ~value:tag ())
        keys
    in
    ignore (check_ok "write" (Msgvfs.write fs fd ~off (tags tag copies)));
    List.iter (fun o -> History.return_ hist o History.Acked) ops
  in
  let read keys ~off =
    let ops =
      List.map (fun key -> History.invoke hist ~proc ~kind:`Read ~key ()) keys
    in
    let d =
      check_ok "read" (Msgvfs.read fs fd ~off ~len:(8 * List.length keys))
    in
    List.iteri
      (fun i o ->
        History.return_ hist o (History.Value (Some (String.sub d (8 * i) 8))))
      ops
  in
  match op with
  | Read_block b -> read [ Printf.sprintf "b%d" b ] ~off:(b * bs)
  | Read_both -> read [ "b0"; "b1" ] ~off:(bs - 8)
  | Write_block 0 -> write [ "b0" ] ~off:0 ~copies:(bs / 8)
  | Write_block _ -> write [ "b1" ] ~off:bs ~copies:1
  | Write_both -> write [ "b0"; "b1" ] ~off:0 ~copies:((bs / 8) + 1)
  | Extend ->
    incr extent;
    write [ "b1" ] ~off:bs ~copies:!extent

(* The cores of clients 0 to 7 on 64 cores: two in each of the four
   groups, client c on the first (c < 4) or ninth core of group
   c mod 4. *)
let client_cores () =
  let cores = List.init 8 (fun c -> core_in_group (c mod 4) (8 * (c / 4))) in
  check_groups "two clients in each group" [ 0; 1; 2; 3; 0; 1; 2; 3 ] cores;
  Array.of_list cores

(* 64 cores, round-robin: two clients in each group. *)
let prop_concurrent_file_data =
  QCheck.Test.make ~count:25
    ~name:"msgvfs concurrent one- and two-block data ops are linearizable"
    arbitrary_data_runs (fun (seed, clients) ->
      let hist = History.create () in
      let (_ : Runstats.t) =
        run ~cores:64 ~seed (fun () ->
            let sys = mount_fs () in
            let fs = Msgvfs.client sys in
            check_ok "create" (Msgvfs.create fs "/f");
            let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
            let next = ref 0 in
            let fresh () =
              incr next;
              Printf.sprintf "%08d" !next
            in
            (* both blocks, block 1 two tags long *)
            let extent = ref 1 in
            List.iter
              (apply_data_op hist ~proc:0 fs fd ~fresh ~extent)
              [ Write_both; Extend ];
            let on = client_cores () in
            let fibers =
              List.mapi
                (fun c ops ->
                  Fiber.spawn ~on:on.(c) (fun () ->
                      let fs = Msgvfs.client sys in
                      let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
                      List.iter
                        (apply_data_op hist ~proc:(c + 1) fs fd ~fresh ~extent)
                        ops))
                clients
            in
            List.iter join fibers)
      in
      match Lin.check_history hist with
      | `Ok -> true
      | `Violation msg -> QCheck.Test.fail_reportf "not linearizable: %s" msg)

(* Forwarded reads queued at the shard when their file is unlinked, and
   the freed block reused by new files: the reads are served before the
   new files' zero-fills and writes reach the shard (DESIGN D18), so
   they return the old file's bytes, never a new file's.  One shard of
   one block: a read of a second file misses and holds the shard for a
   disk read while the reads queue behind it.  Two blocks in all, so
   each new file gets the unlinked file's block.  Each reader reads
   once before the unlink, when its read is forwarded at once, and
   once after it, when the descriptor is stale. *)
let test_fs_unlink_under_forwarded_reads () =
  List.iter
    (fun seed ->
      let (_ : Runstats.t) =
        run ~cores:64 ~seed (fun () ->
            let dev = Blockdev.start () in
            let bcache = Bcache.start ~shards:1 ~capacity:1 ~dev () in
            let alloc = Cgalloc.start ~groups:1 ~nblocks:2 () in
            let sys = Msgvfs.mount Msgvfs.default_config ~bcache ~alloc in
            let fs = Msgvfs.client sys in
            let file path c =
              check_ok "create" (Msgvfs.create fs path);
              let fd = check_ok "open" (Msgvfs.open_ fs path) in
              ignore
                (check_ok "write" (Msgvfs.write fs fd ~off:0 (String.make 8 c)));
              fd
            in
            let w = file "/w" 'w' in
            let u = file "/u" 'u' in
            let read fd = Msgvfs.read fs fd ~off:0 ~len:8 in
            let stall =
              Fiber.spawn ~on:1 (fun () -> ignore (check_ok "read /w" (read w)))
            in
            let readers =
              List.init 8 (fun i ->
                  Fiber.spawn ~on:(8 * i) (fun () ->
                      Alcotest.(check string) "the unlinked file's bytes"
                        "uuuuuuuu" (check_ok "read /u" (read u));
                      check_err "read /u after the unlink" Fsspec.Ebadf
                        (read u)))
            in
            (* long enough for the reads to be forwarded, far shorter than
               the disk read ahead of them at the shard *)
            Fiber.sleep 5_000;
            check_ok "unlink /u" (Msgvfs.unlink fs "/u");
            for k = 1 to 3 do
              let path = Printf.sprintf "/v%d" k in
              let v = file path 'v' in
              Alcotest.(check string) "the new file's bytes" "vvvvvvvv"
                (check_ok "read /v" (read v));
              check_ok "unlink /v" (Msgvfs.unlink fs path)
            done;
            List.iter join (stall :: readers))
      in
      ())
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Held forwards (DESIGN D20)                                          *)

(* [k] one-block reads of one file, from readers spawned on a 1-core
   machine, where the file's vnode runs too: every reader sends before
   the vnode gets the core back, so the vnode finds the [k] reads in
   its inbox.  Returns the messages they cost. *)
let queued_reads k =
  let fs = boot_fs () in
  check_ok "create" (Msgvfs.create fs "/f");
  let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
  ignore (check_ok "write" (Msgvfs.write fs fd ~off:0 "abcdefgh"));
  let c = Engine.counters (Engine.current ()) in
  let before = c.Engine.msgs in
  List.init k (fun _ ->
      Fiber.spawn (fun () ->
          Alcotest.(check string) "read" "abcdefgh"
            (check_ok "read" (Msgvfs.read fs fd ~off:0 ~len:8))))
  |> List.iter join;
  c.Engine.msgs - before

(* The vnode forwards the [k] queued reads in one message to the
   shard: [k] requests, one message, [k] replies from the shard.  One
   read alone is D18's three messages. *)
let test_fs_queued_reads_one_message () =
  List.iter
    (fun k ->
      let n = ref 0 in
      let (_ : Runstats.t) =
        run ~cores:1 (fun () -> n := queued_reads k)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d queued reads" k)
        (k + 1 + k) !n)
    [ 1; 2; 5 ]

(* The batching counters are host-side: a run with a metrics registry
   is cycle for cycle the run without one (DESIGN D11).  They count
   the messages that carry two or more forwards and the forwards those
   carry, and a run that never batches registers neither. *)
let test_batch_counters () =
  let observed k =
    let bare = run ~cores:1 (fun () -> ignore (queued_reads k)) in
    let reg = Metrics.create () in
    Metrics.install reg;
    let seen = run ~cores:1 (fun () -> ignore (queued_reads k)) in
    Metrics.uninstall ();
    Alcotest.(check (pair int int)) "no observer effect"
      (bare.Runstats.makespan, bare.Runstats.msgs)
      (seen.Runstats.makespan, seen.Runstats.msgs);
    List.filter_map
      (fun name ->
        match
          List.assoc_opt ("msgvfs", "batch." ^ name) (Metrics.snapshot reg)
        with
        | Some (Metrics.Counter n) -> Some n
        | _ -> None)
      [ "messages"; "forwards" ]
  in
  Alcotest.(check (list int)) "one message of 5 forwards" [ 1; 5 ] (observed 5);
  Alcotest.(check (list int)) "nothing registered without a batch" []
    (observed 1)

(* A held overwrite reaches the shard before the vnode's own cache
   calls.  An overwrite of bytes 4-7 and a write of bytes 6-9, which
   extends the file, queue behind one vnode (on one core, both writers
   send before it runs, as in [queued_reads]).  The vnode holds the
   overwrite and must send it before it writes the extension itself:
   sent after, it would land last, and bytes 6-7 would read "bb". *)
let test_fs_held_overwrite_before_extension () =
  let (_ : Runstats.t) =
    run ~cores:1 (fun () ->
        let fs = boot_fs () in
        check_ok "create" (Msgvfs.create fs "/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
        ignore (check_ok "write" (Msgvfs.write fs fd ~off:0 "aaaaaaaa"));
        let write ~off data =
          Fiber.spawn (fun () ->
              Alcotest.(check int) "wrote" (String.length data)
                (check_ok "write" (Msgvfs.write fs fd ~off data)))
        in
        let overwrite = write ~off:4 "bbbb" in
        let extension = write ~off:6 "cccc" in
        List.iter join [ overwrite; extension ];
        Alcotest.(check string) "the overwrite, then the extension"
          "aaaabbcccc"
          (check_ok "read" (Msgvfs.read fs fd ~off:0 ~len:10)))
  in
  ()

(* A held read reaches the shard before its file's blocks are freed.
   The vnode of a two-block file reads both blocks itself, for a
   client, while a one-block read and the unlink's Retire queue behind
   it; so it holds the read when it reaches the Retire.  The disk and
   the allocator run on core 63.  The kernel places the cache (one
   shard of one block: every read here misses) at the mesh's centre,
   core 27, and the file's vnode beside it on core 26, 9 hops from the
   allocator.  A fiber beside the allocator polls it until it gets a
   freed block and overwrites it.  Sent after the frees, the held read
   would reach the shard behind that overwrite and return
   "vvvvvvvv". *)
let test_fs_held_read_before_frees () =
  let (_ : Runstats.t) =
    run ~cores:64 ~policy:Policy.parent (fun () ->
        let services = ref None in
        join
          (Fiber.spawn ~on:63 (fun () ->
               let dev = Blockdev.start () in
               services :=
                 Some
                   ( Bcache.start ~shards:1 ~capacity:1 ~dev (),
                     Cgalloc.start ~groups:1 ~nblocks:2 () )));
        let bcache, alloc = Option.get !services in
        let fs =
          Msgvfs.client (Msgvfs.mount Msgvfs.default_config ~bcache ~alloc)
        in
        let bs = Fsspec.block_size in
        check_ok "create" (Msgvfs.create fs "/u");
        let fd = check_ok "open" (Msgvfs.open_ fs "/u") in
        ignore
          (check_ok "write"
             (Msgvfs.write fs fd ~off:0 (String.make (bs + 8) 'u')));
        let reuser =
          Fiber.spawn ~on:62 (fun () ->
              let rec poll () =
                match Cgalloc.alloc alloc ~hint:0 with
                | Some b -> Bcache.put bcache b ~off:0 "vvvvvvvv"
                | None ->
                  Fiber.sleep 50;
                  poll ()
              in
              poll ())
        in
        let read ~on ~off ~len want =
          Fiber.spawn ~on (fun () ->
              Alcotest.(check string) "the unlinked file's bytes" want
                (check_ok "read" (Msgvfs.read fs fd ~off ~len)))
        in
        let two_blocks = read ~on:8 ~off:(bs - 4) ~len:8 "uuuuuuuu" in
        Fiber.sleep 2_000;
        let held = read ~on:16 ~off:0 ~len:8 "uuuuuuuu" in
        Fiber.sleep 2_000;
        check_ok "unlink" (Msgvfs.unlink fs "/u");
        List.iter join [ two_blocks; held; reuser ])
  in
  ()

(* Requests queued in a file vnode behind its Retire are answered when
   its loop stops: a read through an open descriptor is Ebadf, and a
   walk through the file whose Lookup reached the vnode is Enoent.
   Before, they waited forever.  One shard of one block: the vnode holds
   its loop across a disk read while the Retire queues behind it, and
   the others behind the Retire.  The walker's Lookup of the file was
   answered before the unlink began; a busy fiber on the walker's core
   holds back its next Lookup until after the Retire.  The disk and
   the allocator run on main's core, and each client on a core of its
   own.  The kernel places the shard on the mesh's centre, core 2,
   beside the walker (so the busy fiber also holds back the disk
   read), the root's vnode on core 0 and the file's on core 3, beside
   the unlinker. *)
let test_fs_requests_queued_behind_retire () =
  let (_ : Runstats.t) =
    run ~policy:Policy.parent (fun () ->
        let dev = Blockdev.start () in
        let bcache = Bcache.start ~shards:1 ~capacity:1 ~dev () in
        let alloc = Cgalloc.start ~nblocks:64 () in
        let fs =
          Msgvfs.client (Msgvfs.mount Msgvfs.default_config ~bcache ~alloc)
        in
        let bs = Fsspec.block_size in
        check_ok "create" (Msgvfs.create fs "/f");
        let fd = check_ok "open" (Msgvfs.open_ fs "/f") in
        ignore
          (check_ok "write"
             (Msgvfs.write fs fd ~off:0 (String.make (bs + 8) 'f')));
        let slow =
          Fiber.spawn ~on:1 (fun () ->
              Alcotest.(check string) "the read ahead of the Retire"
                (String.make 16 'f')
                (check_ok "two-block read"
                   (Msgvfs.read fs fd ~off:(bs - 8) ~len:16)))
        in
        let walker =
          Fiber.spawn ~on:2 (fun () ->
              check_err "a Lookup behind the Retire" Fsspec.Enoent
                (Msgvfs.stat fs "/f/x"))
        in
        let busy = Fiber.spawn ~on:2 (fun () -> Fiber.work 30_000) in
        Fiber.sleep 2_000;
        let unlinker =
          Fiber.spawn ~on:3 (fun () ->
              check_ok "unlink" (Msgvfs.unlink fs "/f"))
        in
        Fiber.sleep 10_000;
        let readers =
          List.init 3 (fun i ->
              Fiber.spawn ~on:(4 + i) (fun () ->
                  check_err "a read behind the Retire" Fsspec.Ebadf
                    (Msgvfs.read fs fd ~off:0 ~len:8)))
        in
        List.iter join (slow :: walker :: busy :: unlinker :: readers);
        check_err "gone" Fsspec.Enoent (Msgvfs.stat fs "/f"))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Placement (DESIGN D22, D23)                                         *)

(* The placement of a run on [machine]. *)
let place_on machine =
  let p = ref None in
  let (_ : Runstats.t) =
    Runtime.run (Runtime.config ~seed:42 machine) (fun () ->
        p := Some (Place.current ()))
  in
  Option.get !p

(* On a mesh whose sides are multiples of 4, the groups are the 4x4
   tiles: 16 cores each, spanning 4 columns and 4 rows.  A group's
   cache is one of its members within 4 hops of every member (the
   tile's middle four), the one farthest from the chip's centre,
   lowest id on a tie.  No shard or vnode rank is a cache's core.  At
   1024 cores the nearest cache is 4 hops from the centre, so the 25
   cores within 3 hops are left to the services, and 4 caches lie
   within the radius of the 64 ranks nearest the centre (6 hops). *)
let test_groups_are_tiles () =
  List.iter
    (fun cores ->
      let m = Machine.mesh ~cores in
      let p = place_on m in
      let w = fst (Option.get (Machine.mesh_sides m)) in
      let order = Machine.centre_out m in
      let from_centre c = Machine.hops m order.(0) c in
      let name what = Printf.sprintf "%d cores: %s" cores what in
      let groups = Place.groups p in
      Alcotest.(check int) (name "a group per 16 cores") (cores / 16) groups;
      let caches = List.init groups (Place.cache p) in
      List.iteri
        (fun g cache ->
          let members =
            List.filter (fun c -> Place.group p c = g) (List.init cores Fun.id)
          in
          let span f =
            let l = List.map f members in
            List.fold_left max 0 l - List.fold_left min max_int l + 1
          in
          Alcotest.(check (list int))
            (name (Printf.sprintf "group %d: 16 cores, 4 columns, 4 rows" g))
            [ 16; 4; 4 ]
            [ List.length members;
              span (fun c -> c mod w);
              span (fun c -> c / w) ];
          let central =
            List.filter
              (fun c -> List.for_all (fun d -> Machine.hops m c d <= 4) members)
              members
          in
          let farthest =
            List.fold_left
              (fun a b -> if from_centre b > from_centre a then b else a)
              (List.hd central) central
          in
          Alcotest.(check int)
            (name (Printf.sprintf "group %d's cache" g))
            farthest cache)
        caches;
      let cache_core c = List.mem c caches in
      let shards = cores / 8 in
      for r = 0 to cores - 1 do
        if cache_core (Place.shard p r) || cache_core (Place.vnode p ~shards r)
        then Alcotest.failf "%s" (name (Printf.sprintf "rank %d on a cache" r))
      done;
      if cores = 1024 then begin
        (* shards 0 to 31 and vnodes 0 to 31 take ranks 0 to 63 *)
        let radius =
          List.fold_left max 0
            (List.init 32 (fun i ->
                 max
                   (from_centre (Place.shard p i))
                   (from_centre (Place.vnode p ~shards i))))
        in
        let near d = List.filter (fun c -> from_centre c <= d) caches in
        Alcotest.(check (list int))
          (name "64 ranks' radius; caches within 3 hops, within it")
          [ 6; 0; 4 ]
          [ radius; List.length (near 3); List.length (near radius) ]
      end)
    [ 32; 64; 256; 1024 ]

(* Every other machine keeps its groups as runs of 16 consecutive core
   ids, each cache on its run's first core, and 16 cores have none. *)
let test_groups_elsewhere_are_runs () =
  let topo shape = Machine.make (Topology.make shape) Cost.software_messages in
  List.iter
    (fun (what, m) ->
      let p = place_on m in
      let cores = Machine.cores m in
      let groups = if cores > 16 then cores / 16 else 0 in
      Alcotest.(check int) (what ^ ": groups") groups (Place.groups p);
      Alcotest.(check (list int))
        (what ^ ": each core's group")
        (List.init cores (fun c -> c * groups / cores))
        (List.init cores (Place.group p));
      Alcotest.(check (list int))
        (what ^ ": each group's cache")
        (List.init groups (fun g -> 16 * g))
        (List.init groups (Place.cache p)))
    [ ("64-core crossbar", topo (Topology.Crossbar 64));
      ("64-core ring", topo (Topology.Ring 64));
      ("64-core hierarchy", topo (Topology.Hierarchy (2, 4, 8)));
      ("6x8 mesh", topo (Topology.Mesh (6, 8)));
      ("16 cores", Machine.mesh ~cores:16) ]

(* On a 32x32 mesh the kernel deals the cores without a name cache,
   nearest the centre first, as ranks: shard i at rank 2i, vnode v
   (the root is 0) at 2v+1 while v < shards and at shards+v after.
   Each fiber's core is read from the trace: its Spawn gives the core
   and its first Segment the label. *)
let test_services_at_centre () =
  let cores = 1024 and shards = 8 in
  let machine = Machine.mesh ~cores in
  let sink, records = Chorus.Trace.collector () in
  let caches = ref [] in
  let (_ : Runstats.t) =
    Runtime.run
      (Runtime.config ~policy:(Policy.round_robin ()) ~seed:42 ~trace:sink
         machine)
      (fun () ->
        let p = Place.current () in
        caches := List.init (Place.groups p) (Place.cache p);
        let kern =
          Kernel.boot { Kernel.default_config with bcache_shards = shards }
        in
        let fs = Kernel.fs_client kern in
        check_ok "mkdir" (Msgvfs.mkdir fs "/d");
        for i = 0 to 9 do
          check_ok "create" (Msgvfs.create fs (Printf.sprintf "/d/f%d" i))
        done)
  in
  let core_of = Hashtbl.create 64 and label_of = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.Chorus.Trace.event with
      | Chorus.Trace.Spawn { child; on_core } ->
        Hashtbl.replace core_of child on_core
      | Chorus.Trace.Segment { label; _ } ->
        if not (Hashtbl.mem label_of label) then
          Hashtbl.replace label_of label r.Chorus.Trace.fiber
      | _ -> ())
    (records ());
  let at label =
    match Hashtbl.find_opt label_of label with
    | Some fid -> Hashtbl.find core_of fid
    | None -> Alcotest.failf "no fiber %s" label
  in
  let caches = !caches in
  Alcotest.(check int) "a name cache per group" (cores / 16)
    (List.length caches);
  let ranked =
    Array.of_list
      (List.filter
         (fun c -> not (List.mem c caches))
         (Array.to_list (Machine.centre_out machine)))
  in
  let rank r = ranked.(r mod Array.length ranked) in
  let placed =
    List.init shards (fun i -> (Printf.sprintf "bcache-%d" i, rank (2 * i)))
    @ [ ("root-vnode", rank 1); ("dir-vnode-2", rank 3) ]
    @ List.init 10 (fun i ->
          let v = i + 2 in
          ( Printf.sprintf "file-vnode-%d" (v + 1),
            rank (if v < shards then (2 * v) + 1 else shards + v) ))
  in
  List.iter
    (fun (label, want) -> Alcotest.(check int) label want (at label))
    placed;
  let used = List.map snd placed in
  Alcotest.(check int) "all on distinct cores" (List.length used)
    (List.length (List.sort_uniq compare used));
  List.iteri
    (fun g c ->
      Alcotest.(check int) "a name cache on the core Place gives it" c
        (at (Printf.sprintf "name-cache-%d" g)))
    caches;
  Alcotest.(check bool) "none on a name cache's core" false
    (List.exists (fun c -> List.mem c caches) used);
  let centre = (Machine.centre_out machine).(0) in
  Alcotest.(check bool) "the first file's vnode within 3 hops of the centre"
    true
    (Machine.hops machine centre (at "file-vnode-3") <= 3)

(* ------------------------------------------------------------------ *)
(* Name caches (DESIGN D19)                                            *)

(* The messages [f] sends and causes, run alone in a fiber on [core]. *)
let msgs_on core f =
  let n = ref 0 in
  join
    (Fiber.spawn ~on:core (fun () ->
         let c = Engine.counters (Engine.current ()) in
         let before = c.Engine.msgs in
         f ();
         n := c.Engine.msgs - before));
  !n

(* The messages of a walk of [path] from the first core of [group]. *)
let resolve_in fs group path =
  msgs_on (core_in_group group 0) (fun () ->
      ignore (check_ok ("resolve " ^ path) (Msgvfs.resolve fs path)))

(* A walk is one message to the cache of the caller's group and its
   answer.  The first walk through a directory in a group adds a
   Subscribe and the directory's names; a name made after the copy
   costs a direct Lookup at each step from its directory on. *)
let test_name_cache_messages () =
  let (_ : Runstats.t) =
    run ~cores:64 (fun () ->
        let fs = boot_fs () in
        check_ok "mkdir /d" (Msgvfs.mkdir fs "/d");
        check_ok "mkdir /e" (Msgvfs.mkdir fs "/e");
        check_ok "create /d/f" (Msgvfs.create fs "/d/f");
        check_ok "create /e/g" (Msgvfs.create fs "/e/g");
        Alcotest.(check int) "first walk in group 1: the root and /d copied"
          (2 + 2 + 2) (resolve_in fs 1 "/d/f");
        Alcotest.(check int) "warm walk" 2 (resolve_in fs 1 "/d/f");
        Alcotest.(check int) "first walk through /e" (2 + 2)
          (resolve_in fs 1 "/e/g");
        check_ok "mkdir /n" (Msgvfs.mkdir fs "/n");
        check_ok "create /n/h" (Msgvfs.create fs "/n/h");
        Alcotest.(check int) "a name made after the copy" (2 + 2 + 2)
          (resolve_in fs 1 "/n/h");
        Alcotest.(check int) "still not copied" (2 + 2 + 2)
          (resolve_in fs 1 "/n/h"))
  in
  ()

(* An unlink from group 0 of a name held by the caches of groups 0 to
   k - 1 costs an invalidation and its ack per group: 2k messages more
   than on 16 cores, where there is no cache and the walk of the parent
   is one Lookup at the root. *)
let test_unlink_invalidation_messages () =
  let unlink_msgs ~cores ~holders =
    let n = ref 0 in
    let (_ : Runstats.t) =
      run ~cores (fun () ->
          let fs = boot_fs () in
          check_ok "mkdir" (Msgvfs.mkdir fs "/d");
          check_ok "create" (Msgvfs.create fs "/d/f");
          for g = 0 to holders - 1 do
            ignore (resolve_in fs g "/d/f")
          done;
          n :=
            msgs_on 0 (fun () -> check_ok "unlink" (Msgvfs.unlink fs "/d/f")))
    in
    !n
  in
  let one_group = unlink_msgs ~cores:16 ~holders:1 in
  for k = 1 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "held by %d group(s)" k)
      (one_group + (2 * k))
      (unlink_msgs ~cores:64 ~holders:k)
  done

(* The name-path counters count walks answered whole and in part,
   subscriptions and invalidations; they are host-side, so a run with
   a metrics registry is cycle for cycle the run without one. *)
let test_name_cache_counters () =
  let scenario () =
    let fs = boot_fs () in
    check_ok "mkdir" (Msgvfs.mkdir fs "/d");
    (* group 0 copies the root *)
    check_ok "create" (Msgvfs.create fs "/d/f");
    (* groups 1 and 2 copy the root and /d, both holding f *)
    List.iter (fun g -> ignore (resolve_in fs g "/d/f")) [ 1; 1; 2 ];
    check_ok "create" (Msgvfs.create fs "/d/x");
    (* x was made after group 1's copy of /d *)
    ignore (resolve_in fs 1 "/d/x");
    check_ok "unlink" (Msgvfs.unlink fs "/d/f")
  in
  let bare = run ~cores:64 scenario in
  let reg = Metrics.create () in
  Metrics.install reg;
  let observed = run ~cores:64 scenario in
  Metrics.uninstall ();
  Alcotest.(check (pair int int)) "no observer effect"
    (bare.Runstats.makespan, bare.Runstats.msgs)
    (observed.Runstats.makespan, observed.Runstats.msgs);
  let counter name =
    match List.assoc_opt ("msgvfs", "cache." ^ name) (Metrics.snapshot reg) with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "no counter cache.%s" name
  in
  Alcotest.(check (list int))
    "whole, partial, subscriptions, invalidations" [ 6; 1; 5; 2 ]
    (List.map counter
       [ "walks_whole"; "walks_partial"; "subscriptions"; "invalidations" ])

(* Names as registers.  A name's value is its kind or "absent"; stat
   reads it, and one client, its writer, changes it.  Writer w (of
   clients 0 to 3, one per group) owns /a<w> and /d/b<w>, which start as
   a file and a directory.  Its writes apply only where they succeed (a
   create or mkdir of an absent name, an unlink of a present one, a
   rename of a present name onto its absent partner); any other op, and
   every op of clients 4 to 7, is a stat of the op's name. *)
type name_op = Stat | Create | Mkdir | Unlink | Rename

let show_name_op (op, i) =
  Printf.sprintf "%s %d"
    (match op with
    | Stat -> "stat"
    | Create -> "create"
    | Mkdir -> "mkdir"
    | Unlink -> "unlink"
    | Rename -> "rename")
    i

(* 8 clients of 6 ops: with its initial write and the four warm-up
   reads, at most 53 register ops on one name, under Lin's bound of 60 *)
let arbitrary_name_runs =
  let open QCheck.Gen in
  let op =
    pair
      (frequency
         [ (4, return Stat); (1, return Create); (1, return Mkdir);
           (2, return Unlink); (2, return Rename) ])
      (int_range 0 7)
  in
  QCheck.make
    ~print:(fun (seed, clients) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat " | "
           (List.map
              (fun ops -> String.concat "; " (List.map show_name_op ops))
              clients)))
    (pair small_nat (list_repeat 8 (list_repeat 6 op)))

let name_path i =
  if i < 4 then Printf.sprintf "/a%d" i else Printf.sprintf "/d/b%d" (i - 4)

let kind_value = function Fsspec.File -> "file" | Fsspec.Dir -> "dir"

(* 64 cores, round-robin, two clients in each group.  Each run
   also stats every name from every group first, so every cache holds
   every name when the writers begin.  A kernel that skips the
   invalidation on Remove, or the one on Detach (rename's first half),
   fails this within 50 cases. *)
let prop_names_linearizable =
  QCheck.Test.make ~count:50
    ~name:"msgvfs names are linearizable across name caches"
    arbitrary_name_runs (fun (seed, clients) ->
      let hist = History.create () in
      let (_ : Runstats.t) =
        run ~cores:64 ~seed (fun () ->
            let fs = boot_fs () in
            let state = Array.make 8 "absent" in
            let write ~proc changes f =
              let ops =
                List.map
                  (fun (i, v) ->
                    state.(i) <- v;
                    History.invoke hist ~proc ~kind:`Write ~key:(name_path i)
                      ~value:v ())
                  changes
              in
              check_ok "write" (f ());
              List.iter (fun o -> History.return_ hist o History.Acked) ops
            in
            let stat ~proc fs i =
              let o =
                History.invoke hist ~proc ~kind:`Read ~key:(name_path i) ()
              in
              let v =
                match Msgvfs.stat fs (name_path i) with
                | Ok st -> kind_value st.Fsspec.kind
                | Error Fsspec.Enoent -> "absent"
                | Error e -> Alcotest.failf "stat: %s" (Fsspec.err_to_string e)
              in
              History.return_ hist o (History.Value (Some v))
            in
            check_ok "mkdir /d" (Msgvfs.mkdir fs "/d");
            for w = 0 to 3 do
              write ~proc:0 [ (w, "file") ] (fun () ->
                  Msgvfs.create fs (name_path w));
              write ~proc:0 [ (w + 4, "dir") ] (fun () ->
                  Msgvfs.mkdir fs (name_path (w + 4)))
            done;
            for g = 0 to 3 do
              join
                (Fiber.spawn ~on:(cache_core g) (fun () ->
                     for i = 0 to 7 do
                       stat ~proc:0 fs i
                     done))
            done;
            let on = client_cores () in
            let fibers =
              List.mapi
                (fun c ops ->
                  Fiber.spawn ~on:on.(c) (fun () ->
                      let proc = c + 1 in
                      List.iter
                        (fun (op, i) ->
                          let own = if i < 4 then c else c + 4 in
                          let partner = (own + 4) mod 8 in
                          let p = name_path own in
                          let present = c < 4 && state.(own) <> "absent" in
                          match op with
                          | _ when c >= 4 -> stat ~proc fs i
                          | Create when not present ->
                            write ~proc [ (own, "file") ] (fun () ->
                                Msgvfs.create fs p)
                          | Mkdir when not present ->
                            write ~proc [ (own, "dir") ] (fun () ->
                                Msgvfs.mkdir fs p)
                          | Unlink when present ->
                            write ~proc [ (own, "absent") ] (fun () ->
                                Msgvfs.unlink fs p)
                          | Rename when present && state.(partner) = "absent"
                            ->
                            write ~proc
                              [ (own, "absent"); (partner, state.(own)) ]
                              (fun () ->
                                Msgvfs.rename fs p (name_path partner))
                          | _ -> stat ~proc fs i)
                        ops))
                clients
            in
            List.iter join fibers)
      in
      match Lin.check_history hist with
      | `Ok -> true
      | `Violation msg -> QCheck.Test.fail_reportf "not linearizable: %s" msg)

(* The inversion the root replicas allowed: while mkdir /x pushed the
   new name to the replicas one group after another, a reader in group
   2 saw /x, and a reader in group 15 that started after it returned
   got Enoent.  A name cache never learns a new name, so both readers
   ask the root. *)
let test_new_name_seen_in_order () =
  let (_ : Runstats.t) =
    run ~cores:256 (fun () ->
        let fs = boot_fs () in
        let in_group g f = join (Fiber.spawn ~on:(cache_core g) f) in
        (* every group walks through the root, group 2 first and group
           15 last *)
        let order =
          (2 :: List.filter (fun g -> g <> 2 && g <> 15) (List.init 16 Fun.id))
          @ [ 15 ]
        in
        check_groups "the warm-up walks' groups" order
          (List.map cache_core order);
        check_groups "the readers' and the writer's groups" [ 2; 15; 8 ]
          (List.map cache_core [ 2; 15; 8 ]);
        List.iter
          (fun g ->
            in_group g (fun () ->
                check_err "warm-up" Fsspec.Enoent (Msgvfs.stat fs "/warm")))
          order;
        let later = ref None in
        let reader =
          Fiber.spawn ~on:(cache_core 2) (fun () ->
              let rec poll tries =
                if tries = 0 then Alcotest.fail "group 2 never saw /x"
                else
                  match Msgvfs.stat fs "/x" with
                  | Ok _ ->
                    later :=
                      Some
                        (Fiber.spawn ~on:(cache_core 15) (fun () ->
                             ignore
                               (check_ok "group 15, after group 2 saw /x"
                                  (Msgvfs.stat fs "/x"))))
                  | Error _ -> poll (tries - 1)
              in
              poll 1_000)
        in
        let writer =
          Fiber.spawn ~on:(cache_core 8) (fun () ->
              check_ok "mkdir /x" (Msgvfs.mkdir fs "/x"))
        in
        List.iter join [ reader; writer ];
        Option.iter join !later)
  in
  ()

(* ------------------------------------------------------------------ *)
(* Payload charges                                                     *)

(* The makespan of a 4-core run that writes [n] bytes to a fresh file. *)
module Write_cost (F : Fsspec.S) = struct
  let makespan mount n =
    let stats =
      run ~cores:4 (fun () ->
          let fs = mount () in
          check_ok "create" (F.create fs "/f");
          let fd = check_ok "open" (F.open_ fs "/f") in
          ignore (check_ok "write" (F.write fs fd ~off:0 (String.make n 'x'))))
    in
    stats.Runstats.makespan
end

module Msg_cost = Write_cost (Msgvfs)
module Sh_cost = Write_cost (Shvfs)

(* Cost.words_of_bytes is the one rule: a write of 1..8 bytes costs one
   word in either kernel and a ninth byte costs a second. *)
let test_payload_whole_words () =
  let check kernel makespan =
    let one_word = makespan 1 and two_words = makespan 9 in
    for n = 2 to 16 do
      let words, want = if n <= 8 then (1, one_word) else (2, two_words) in
      Alcotest.(check int)
        (Printf.sprintf "%s: %d bytes cost %d word(s)" kernel n words)
        want (makespan n)
    done;
    Alcotest.(check bool) (kernel ^ ": a second word costs more") true
      (two_words > one_word)
  in
  check "msgvfs" (Msg_cost.makespan (fun () -> boot_fs ()));
  check "shvfs"
    (Sh_cost.makespan (fun () -> Shvfs.client (Shvfs.make Shvfs.default_config)))

(* ------------------------------------------------------------------ *)
(* Notify                                                              *)

let test_notify_pubsub () =
  let (_ : Runstats.t) =
    run (fun () ->
        let hub = Notify.start () in
        let all = Notify.subscribe hub in
        let failed =
          Notify.subscribe_filtered hub (fun (Notify.App_exit { ok; _ }) ->
              not ok)
        in
        Notify.publish hub (Notify.App_exit { pid = 7; ok = false });
        Notify.publish hub (Notify.App_exit { pid = 8; ok = true });
        Fiber.sleep 10_000;
        Alcotest.(check int) "all-subscriber got both" 2 (Chan.length all);
        Alcotest.(check int) "filtered got one" 1 (Chan.length failed);
        (let (Notify.App_exit { pid; _ }) = Chan.recv failed in
         Alcotest.(check int) "payload" 7 pid);
        Alcotest.(check int) "published" 2 (Notify.published hub);
        Alcotest.(check int) "delivered" 3 (Notify.delivered hub))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Vmserv                                                              *)

let test_vm_fault_map () =
  let (_ : Runstats.t) =
    run (fun () ->
        let vm = Vmserv.start ~pages_per_manager:16 ~pages:64 ~frames:32 () in
        Alcotest.(check int) "managers" 4 (Vmserv.managers vm);
        (match Vmserv.fault vm 5 with
        | `Mapped -> ()
        | _ -> Alcotest.fail "first fault should map");
        (match Vmserv.fault vm 5 with
        | `Already -> ()
        | _ -> Alcotest.fail "second fault is a no-op");
        Alcotest.(check int) "one page mapped" 1 (Vmserv.mapped vm);
        (* exhaust frames *)
        for p = 6 to 36 do
          ignore (Vmserv.fault vm p)
        done;
        (match Vmserv.fault vm 40 with
        | `Oom -> ()
        | _ -> Alcotest.fail "frames exhausted -> Oom");
        (* reclaim and retry *)
        Vmserv.protect vm 5;
        (match Vmserv.fault vm 40 with
        | `Mapped -> ()
        | _ -> Alcotest.fail "reclaimed frame reusable"))
  in
  ()

let test_vm_thread_per_page () =
  (* the paper's pathological granularity: one manager per page *)
  let (_ : Runstats.t) =
    run (fun () ->
        let vm = Vmserv.start ~pages_per_manager:1 ~pages:64 ~frames:64 () in
        Alcotest.(check int) "64 managers" 64 (Vmserv.managers vm);
        for p = 0 to 63 do
          match Vmserv.fault vm p with
          | `Mapped -> ()
          | _ -> Alcotest.fail "map"
        done;
        Alcotest.(check int) "all mapped" 64 (Vmserv.mapped vm))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let crashing_echo ~crash_on ep () =
  Fiber.spawn ~label:"echo-svc" ~daemon:true (fun () ->
      Svc.serve ep (fun v ->
          if v = crash_on then failwith "service bug";
          v * 2))

let test_supervisor_restart () =
  let (_ : Runstats.t) =
    run (fun () ->
        let ep = Svc.create ~subsystem:"test" ~label:"echo" () in
        let sup =
          Supervisor.start Supervisor.One_for_one
            [ { Supervisor.cname = "echo";
                cstart = crashing_echo ~crash_on:13 ep } ]
        in
        Fiber.sleep 1_000;
        Alcotest.(check int) "service works" 4 (Svc.call ep 2);
        (* crash it: the request (and its reply) is lost, so the caller
           needs a timeout arm — which is exactly what choice is for *)
        let reply = Svc.call_async ep 13 in
        let timed_out =
          Chan.choose
            [ Chan.recv_case reply (fun _ -> false);
              Chan.after 200_000 (fun () -> true) ]
        in
        Alcotest.(check bool) "crashed request lost" true timed_out;
        Fiber.sleep 100_000;
        Alcotest.(check int) "restarted, same endpoint" 10 (Svc.call ep 5);
        Alcotest.(check int) "one restart" 1 (Supervisor.restarts sup);
        Alcotest.(check bool) "did not give up" false (Supervisor.gave_up sup))
  in
  ()

let test_supervisor_gives_up () =
  let (_ : Runstats.t) =
    run (fun () ->
        let crash_always () =
          Fiber.spawn ~label:"bad" ~daemon:true (fun () ->
              Fiber.sleep 100;
              failwith "always")
        in
        let sup =
          Supervisor.start ~max_restarts:3 ~window:10_000_000
            Supervisor.One_for_one
            [ { Supervisor.cname = "bad"; cstart = crash_always } ]
        in
        Fiber.sleep 5_000_000;
        Alcotest.(check bool) "gave up" true (Supervisor.gave_up sup);
        Alcotest.(check bool) "bounded restarts" true
          (Supervisor.restarts sup <= 4))
  in
  ()

let test_supervisor_one_for_all () =
  let (_ : Runstats.t) =
    run (fun () ->
        let starts = ref 0 in
        let counting_child name crash_first =
          { Supervisor.cname = name;
            cstart =
              (fun () ->
                incr starts;
                let mine = !starts in
                Fiber.spawn ~label:name ~daemon:true (fun () ->
                    (* only the very first incarnation of the first
                       child crashes *)
                    if crash_first && mine = 1 then begin
                      Fiber.sleep 1_000;
                      failwith "crash"
                    end
                    else Fiber.sleep 100_000_000)) }
        in
        let (_ : Supervisor.t) =
          Supervisor.start Supervisor.One_for_all
            [ counting_child "a" true; counting_child "b" false ]
        in
        Fiber.sleep 1_000_000;
        (* 2 initial starts + 2 restarts (both restarted together) *)
        Alcotest.(check int) "all children restarted" 4 !starts)
  in
  ()

let test_supervisor_escalation_kills_siblings () =
  (* a child exceeding max_restarts within the window escalates: the
     supervisor gives up, and healthy siblings are killed too *)
  let (_ : Runstats.t) =
    run (fun () ->
        let sibling = ref None in
        let good =
          { Supervisor.cname = "good";
            cstart =
              (fun () ->
                let f =
                  Fiber.spawn ~label:"good" ~daemon:true (fun () ->
                      Fiber.sleep 1_000_000_000)
                in
                sibling := Some f;
                f) }
        in
        let bad =
          { Supervisor.cname = "bad";
            cstart =
              (fun () ->
                Fiber.spawn ~label:"bad" ~daemon:true (fun () ->
                    Fiber.sleep 1_000;
                    failwith "always")) }
        in
        let sup =
          Supervisor.start ~max_restarts:2 ~window:10_000_000
            Supervisor.One_for_one [ good; bad ]
        in
        Fiber.sleep 5_000_000;
        Alcotest.(check bool) "escalated" true (Supervisor.gave_up sup);
        Alcotest.(check bool) "bounded restarts" true
          (Supervisor.restarts sup <= 2);
        Alcotest.(check bool) "only the bad child was restarted" true
          (List.for_all (fun (_, n) -> n = "bad") (Supervisor.restart_log sup));
        (match !sibling with
        | None -> Alcotest.fail "good child never started"
        | Some f ->
          Alcotest.(check bool) "healthy sibling killed on escalation"
            false (Fiber.alive f)))
  in
  ()

let test_supervisor_one_for_all_shared_protocol () =
  (* two children share protocol state (an epoch the leader bumps on
     every start, which the follower reads on its start).  One_for_all
     restarts them together, so the follower's view always matches;
     when the leader exceeds the restart budget the whole group
     escalates and the healthy follower is killed too — no orphan left
     running with a stale epoch *)
  let (_ : Runstats.t) =
    run (fun () ->
        let epoch = ref 0 in
        let leader_views = ref [] and follower_views = ref [] in
        let follower_fiber = ref None in
        let leader =
          { Supervisor.cname = "proto-leader";
            cstart =
              (fun () ->
                incr epoch;
                leader_views := !epoch :: !leader_views;
                Fiber.spawn ~label:"proto-leader" ~daemon:true (fun () ->
                    Fiber.sleep 1_000;
                    failwith "desync")) }
        in
        let follower =
          { Supervisor.cname = "proto-follower";
            cstart =
              (fun () ->
                follower_views := !epoch :: !follower_views;
                let f =
                  Fiber.spawn ~label:"proto-follower" ~daemon:true (fun () ->
                      Fiber.sleep 1_000_000_000)
                in
                follower_fiber := Some f;
                f) }
        in
        let sup =
          Supervisor.start ~max_restarts:2 ~window:10_000_000
            Supervisor.One_for_all [ leader; follower ]
        in
        Fiber.sleep 5_000_000;
        Alcotest.(check bool) "escalated" true (Supervisor.gave_up sup);
        Alcotest.(check (list int))
          "follower's epoch view tracked the leader's on every restart"
          !leader_views !follower_views;
        Alcotest.(check int) "initial start + budgeted restarts" 3
          (List.length !leader_views);
        match !follower_fiber with
        | None -> Alcotest.fail "follower never started"
        | Some f ->
          Alcotest.(check bool) "follower killed on escalation" false
            (Fiber.alive f))
  in
  ()

let test_supervisor_window_prunes_old_crashes () =
  (* crashes spaced wider than the window never escalate: the restart
     intensity only counts crashes inside the sliding window *)
  let (_ : Runstats.t) =
    run (fun () ->
        let bad =
          { Supervisor.cname = "slow-crasher";
            cstart =
              (fun () ->
                Fiber.spawn ~label:"slow-crasher" ~daemon:true (fun () ->
                    Fiber.sleep 200_000;
                    failwith "periodic")) }
        in
        let sup =
          Supervisor.start ~max_restarts:2 ~window:100_000
            Supervisor.One_for_one [ bad ]
        in
        Fiber.sleep 3_000_000;
        let escalated = Supervisor.gave_up sup in
        let restarts = Supervisor.restarts sup in
        (* quiesce before the run ends: the crash/restart cycle would
           otherwise generate events forever *)
        Supervisor.stop sup;
        Alcotest.(check bool) "never escalates" false escalated;
        Alcotest.(check bool)
          (Printf.sprintf "keeps restarting (%d)" restarts)
          true (restarts > 2))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Proc, console, kernel boot                                          *)

let test_proc_spawn_wait () =
  let (_ : Runstats.t) =
    run (fun () ->
        let notify = Notify.start () in
        let events = Notify.subscribe notify in
        let pt = Proc.start ~notify () in
        let pid_ok = Proc.spawn_app pt ~label:"good" (fun ~pid:_ -> Fiber.work 100) in
        let pid_bad =
          Proc.spawn_app pt ~label:"bad" (fun ~pid:_ -> failwith "app crash")
        in
        Alcotest.(check bool) "good app ok" true (Proc.wait pt pid_ok);
        Alcotest.(check bool) "bad app not ok" false (Proc.wait pt pid_bad);
        Alcotest.(check int) "both spawned" 2 (Proc.spawned pt);
        Fiber.sleep 10_000;
        (* exits republished as events *)
        Alcotest.(check int) "two exit events" 2 (Chan.length events))
  in
  ()

let test_console_order () =
  let (_ : Runstats.t) =
    run (fun () ->
        let con = Console.start () in
        Console.write_line con "first";
        Console.write_line con "second";
        Alcotest.(check (list string)) "in order" [ "first"; "second" ]
          (Console.output con))
  in
  ()

let test_kernel_boot () =
  let (_ : Runstats.t) =
    run ~cores:16 (fun () ->
        let k = Kernel.boot Kernel.default_config in
        Alcotest.(check bool) "services running" true
          (Kernel.service_fibers k > 10);
        let fs = Kernel.fs_client k in
        check_ok "mkdir" (Msgvfs.mkdir fs "/etc");
        check_ok "create" (Msgvfs.create fs "/etc/motd");
        let fd = check_ok "open" (Msgvfs.open_ fs "/etc/motd") in
        ignore (check_ok "write" (Msgvfs.write fs fd ~off:0 "hello chorus"));
        Alcotest.(check string) "roundtrip through booted kernel"
          "hello chorus"
          (check_ok "read" (Msgvfs.read fs fd ~off:0 ~len:12));
        Console.write_line k.Kernel.console "boot ok";
        let pid = Proc.spawn_app k.Kernel.proc ~label:"init" (fun ~pid:_ -> ()) in
        Alcotest.(check bool) "init ran" true (Proc.wait k.Kernel.proc pid);
        (* sync pushes the dirty cache to the device *)
        Alcotest.(check int) "nothing written yet" 0
          (Blockdev.writes k.Kernel.dev);
        Kernel.sync k;
        Alcotest.(check bool) "sync wrote dirty blocks" true
          (Blockdev.writes k.Kernel.dev > 0))
  in
  ()

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "chorus-kernel"
    [ ( "fsspec",
        [ Alcotest.test_case "split_path" `Quick test_split_path;
          Alcotest.test_case "split_parent" `Quick test_split_parent;
          Alcotest.test_case "fold_range" `Quick test_fold_range;
          Alcotest.test_case "evict_lru" `Quick test_evict_lru ] );
      ( "blockdev",
        [ Alcotest.test_case "roundtrip" `Quick test_blockdev_roundtrip;
          Alcotest.test_case "single-threaded driver" `Quick
            test_blockdev_single_threaded;
          Alcotest.test_case "seek costs" `Quick test_blockdev_seek_costs;
          Alcotest.test_case "read faults + retry" `Quick
            test_blockdev_read_faults_and_retry ] );
      ( "bcache",
        [ Alcotest.test_case "roundtrip" `Quick test_bcache_roundtrip;
          Alcotest.test_case "eviction writeback" `Quick
            test_bcache_eviction_writeback;
          Alcotest.test_case "hit/miss counters" `Quick
            test_bcache_hit_miss_counters;
          Alcotest.test_case "get_range" `Quick test_bcache_get_range;
          Alcotest.test_case "zero-fill evicts" `Quick test_bcache_zero_evicts;
          Alcotest.test_case "group blocks spread over shards" `Quick
            test_bcache_spreads_group_blocks;
          Alcotest.test_case "refill failure keeps the shard" `Quick
            test_bcache_refill_failure_keeps_shard;
          Alcotest.test_case "driver priority" `Quick
            test_blockdev_priority_accepted ] );
      ( "cgalloc",
        [ Alcotest.test_case "unique allocation" `Quick test_cgalloc_unique ] );
      ( "msgvfs",
        [ Alcotest.test_case "semantics (plumbed)" `Quick
            (fs_semantics_suite true);
          Alcotest.test_case "semantics (dispatchers)" `Quick
            (fs_semantics_suite false);
          Alcotest.test_case "unlink vs open handle" `Quick
            test_fs_unlink_open_handle;
          Alcotest.test_case "concurrent clients" `Quick
            test_fs_concurrent_clients;
          Alcotest.test_case "name cache counts" `Quick test_name_cache_counts;
          Alcotest.test_case "services at the centre" `Quick
            test_services_at_centre;
          Alcotest.test_case "groups are 4x4 tiles" `Quick
            test_groups_are_tiles;
          Alcotest.test_case "groups elsewhere are runs of ids" `Quick
            test_groups_elsewhere_are_runs;
          Alcotest.test_case "fiber per vnode" `Quick
            test_vnode_fibers_spawned;
          Alcotest.test_case "plumbed data path messages" `Quick
            test_plumbed_data_path_msgs;
          Alcotest.test_case "cache fill failure is Eio" `Quick
            test_fs_cache_fill_failure_is_eio;
          Alcotest.test_case "dispatcher costs pinned" `Quick
            test_dispatcher_costs_pinned;
          Alcotest.test_case "name cache messages" `Quick
            test_name_cache_messages;
          Alcotest.test_case "unlink invalidation messages" `Quick
            test_unlink_invalidation_messages;
          Alcotest.test_case "name cache counters" `Quick
            test_name_cache_counters ] );
      ( "model-based",
        [ qt prop_msgvfs_matches_model;
          qt prop_msgvfs_dispatch_matches_model;
          qt prop_msgvfs_caches_match_model;
          qt prop_msgvfs_dispatch_caches_match_model;
          qt prop_shvfs_matches_model;
          qt prop_concurrent_file_data;
          Alcotest.test_case "unlink under forwarded reads" `Quick
            test_fs_unlink_under_forwarded_reads;
          Alcotest.test_case "requests queued behind a Retire return" `Quick
            test_fs_requests_queued_behind_retire;
          Alcotest.test_case "queued reads leave in one message" `Quick
            test_fs_queued_reads_one_message;
          Alcotest.test_case "batching counters" `Quick test_batch_counters;
          Alcotest.test_case "a held overwrite precedes an extension" `Quick
            test_fs_held_overwrite_before_extension;
          Alcotest.test_case "a held read precedes its file's frees" `Quick
            test_fs_held_read_before_frees;
          qt prop_names_linearizable;
          Alcotest.test_case "a new name is seen in order across groups"
            `Quick test_new_name_seen_in_order ] );
      ( "payload",
        [ Alcotest.test_case "both kernels charge a payload by whole words"
            `Quick test_payload_whole_words ] );
      ( "notify",
        [ Alcotest.test_case "pub/sub + filter" `Quick test_notify_pubsub ] );
      ( "vm",
        [ Alcotest.test_case "fault/map/reclaim" `Quick test_vm_fault_map;
          Alcotest.test_case "thread per page" `Quick test_vm_thread_per_page ] );
      ( "supervisor",
        [ Alcotest.test_case "restart on crash" `Quick test_supervisor_restart;
          Alcotest.test_case "gives up" `Quick test_supervisor_gives_up;
          Alcotest.test_case "one_for_all" `Quick test_supervisor_one_for_all;
          Alcotest.test_case "one_for_all shared protocol" `Quick
            test_supervisor_one_for_all_shared_protocol;
          Alcotest.test_case "escalation kills siblings" `Quick
            test_supervisor_escalation_kills_siblings;
          Alcotest.test_case "window prunes old crashes" `Quick
            test_supervisor_window_prunes_old_crashes ] );
      ( "proc-console-kernel",
        [ Alcotest.test_case "proc table" `Quick test_proc_spawn_wait;
          Alcotest.test_case "console order" `Quick test_console_order;
          Alcotest.test_case "full kernel boot" `Quick test_kernel_boot ] ) ]
