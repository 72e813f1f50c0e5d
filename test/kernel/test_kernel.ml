(* Tests for the message-passing kernel: drivers, cache, allocators,
   vnode VFS (unit + model-based against the pure reference model and
   the lock-based baseline), notification, VM service, supervision. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
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
module Shvfs = Chorus_baseline.Shvfs

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
    [ 8060; 68; 192 ]
    [ stats.Runstats.makespan; stats.Runstats.msgs;
      stats.Runstats.words_copied ]

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

let test_root_replica_counts () =
  let replicas cores =
    let n = ref (-1) in
    let (_ : Runstats.t) =
      run ~cores (fun () -> n := Msgvfs.replicas (mount_fs ()))
    in
    !n
  in
  Alcotest.(check int) "16 cores: one group, no replica" 0 (replicas 16);
  Alcotest.(check int) "64 cores: 4 groups, 3 replicas" 3 (replicas 64);
  Alcotest.(check int) "1024 cores: 64 groups, 63 replicas" 63
    (replicas 1024)

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

(* With [~groups], op k runs in a fiber on the first core of 16-core
   group k mod groups, joined before op k + 1 starts: a root change made
   from one group is followed by walks from the others, which the
   message kernel serves from different replicas of the root. *)
let model_check_against ?cores ?policy ?groups ?(count = 60) name apply_impl =
  QCheck.Test.make ~name ~count arbitrary_ops (fun ops ->
      let mismatch = ref None in
      let (_ : Runstats.t) =
        run ?cores ?policy (fun () ->
            let model = Model_driver.make (Fsmodel.make ()) in
            let impl = apply_impl () in
            let apply k op =
              match groups with
              | None -> impl op
              | Some g ->
                let got = ref "" in
                let f =
                  Fiber.spawn ~on:(16 * (k mod g)) (fun () -> got := impl op)
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
              ops)
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

(* 64 cores: 4 groups, so the root and 3 replicas of its names.  Random
   placement spreads the root and the two dispatchers over the groups,
   so the dispatcher path crosses replicas too.  A kernel that skips the
   push on Detach (rename's first half) fails both within 200 cases. *)
let replicated_check =
  model_check_against ~cores:64 ~policy:Policy.random ~groups:4 ~count:200

let prop_msgvfs_replicas_match_model =
  replicated_check
    "msgvfs (plumbed, 64 cores, root replicas) == reference model" (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:true ()) in
      Msg_driver.apply st)

let prop_msgvfs_dispatch_replicas_match_model =
  replicated_check
    "msgvfs (dispatchers, 64 cores, root replicas) == reference model"
    (fun () ->
      let st = Msg_driver.make (boot_fs ~plumbing:false ()) in
      Msg_driver.apply st)

let prop_shvfs_matches_model =
  model_check_against "baseline shvfs == reference model" (fun () ->
      let sys = Shvfs.make Shvfs.default_config in
      let st = Sh_driver.make (Shvfs.client sys) in
      Sh_driver.apply st)

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
          Alcotest.test_case "root replica counts" `Quick
            test_root_replica_counts;
          Alcotest.test_case "fiber per vnode" `Quick
            test_vnode_fibers_spawned;
          Alcotest.test_case "dispatcher costs pinned" `Quick
            test_dispatcher_costs_pinned ] );
      ( "model-based",
        [ qt prop_msgvfs_matches_model;
          qt prop_msgvfs_dispatch_matches_model;
          qt prop_msgvfs_replicas_match_model;
          qt prop_msgvfs_dispatch_replicas_match_model;
          qt prop_shvfs_matches_model ] );
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
