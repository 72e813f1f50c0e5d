(* E23 — projected filesystem: lazy hydration and the name cache
   (Sections 3 and 5).

   The paper's filesystem is a message loop per vnode; lib/vfs pushes
   that to its remote conclusion: a mounted namespace whose entries
   live on another node and whose files are placeholder vnodes that
   hydrate over the net stack on first read (the VFSForGit projection
   on the paper's substrate).  Two questions with measurable answers:

   - What does laziness cost, and what does the name cache buy back?
     Part A times cold open+read+close (walk + placeholder fill over
     the wire) against warm re-opens of the same files (name-cache hit
     skips the message-per-component walk; contents already in block
     cache).

   - What happens when everyone faults at once?  Every placeholder
     fill funnels through one bounded Svc endpoint, so a hydration
     storm meets an explicit overload policy instead of an unbounded
     queue.  Part B opens many cold files concurrently against a
     small hydration inbox and measures what each policy trades:
     `Block backpressures the readers (everything completes, tail
     latency absorbs the queue), `Reject and `Shed_oldest convert
     excess fills into clean, retryable EIO.

   Everything is deterministic in (seed, scale): contents come from
   the provider's seeded catalog and are verified byte-for-byte, so a
   torn hydration would fail the run, not skew it. *)

open Exp_common
module Fiber = Chorus.Fiber
module Runstats = Chorus.Runstats
module Svc = Chorus_svc.Svc
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Fsspec = Chorus_fsspec.Fsspec
module Blockdev = Chorus_kernel.Blockdev
module Bcache = Chorus_kernel.Bcache
module Cgalloc = Chorus_kernel.Cgalloc
module Msgvfs = Chorus_kernel.Msgvfs
module Namecache = Chorus_projfs.Namecache
module Provider = Chorus_projfs.Provider
module Projfs = Chorus_projfs.Projfs

(* One projected mount over a two-node fabric; everything E23 measures
   runs against this fixture *)
let boot ?hydration ?workers ~cat () =
  let dev = Blockdev.start () in
  let cache = Bcache.start ~shards:4 ~capacity:512 ~dev () in
  let alloc = Cgalloc.start ~nblocks:8192 () in
  let fs = Msgvfs.mount Msgvfs.default_config ~bcache:cache ~alloc in
  let net = Fabric.create ~latency:2_000 ~seed:7 () in
  let pstack = Stack.create net (Fabric.attach net ~label:"provider" ()) in
  let mstack = Stack.create net (Fabric.attach net ~label:"mount" ()) in
  ignore (Provider.serve cat pstack);
  match
    Projfs.mount ?hydration ?workers ~fs ~at:"/proj" ~stack:mstack
      ~provider:(Stack.addr pstack) ()
  with
  | Ok pf -> pf
  | Error e -> failwith ("e23: mount failed: " ^ Fsspec.err_to_string e)

let full_read c cat path rel =
  match Projfs.open_ c path with
  | Error e -> Error e
  | Ok fd ->
    let r = Projfs.read c fd ~off:0 ~len:Fsspec.block_size in
    ignore (Projfs.close c fd);
    (match r with
    | Ok data ->
      if String.equal data (Option.get (Provider.content cat rel)) then Ok ()
      else failwith ("e23: torn hydration of " ^ rel)
    | Error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Part A: cold vs warm open+read latency                              *)

type open_sample = {
  files : int;
  cold_p50 : int;
  cold_p99 : int;
  warm_p50 : int;
  warm_p99 : int;
  hydrations : int;
  nc_hits : int;
  nc_misses : int;
}

let measure_open ~quick ~seed =
  let files = pick ~quick 48 192 in
  let cat = Provider.catalog ~seed:3 ~nfiles:files in
  let (cold, warm, hydrations, nc_hits, nc_misses), _stats =
    run ~seed ~cores:16 (fun () ->
        let pf = boot ~cat () in
        let c = Projfs.client pf in
        let cold = Histogram.create () and warm = Histogram.create () in
        let sweep hist =
          for i = 0 to files - 1 do
            let rel = Provider.rel_path cat i in
            let t0 = Fiber.now () in
            (match full_read c cat (Projfs.mount_path pf ^ "/" ^ rel) rel with
            | Ok () -> Histogram.record hist (Fiber.now () - t0)
            | Error e ->
              failwith ("e23: read failed: " ^ Fsspec.err_to_string e))
          done
        in
        sweep cold;
        sweep warm;
        let nc = Projfs.cache pf in
        ( cold,
          warm,
          Msgvfs.hydrations (Projfs.fs_sys pf),
          Namecache.hits nc,
          Namecache.misses nc ))
  in
  { files;
    cold_p50 = Histogram.percentile cold 50.0;
    cold_p99 = Histogram.percentile cold 99.0;
    warm_p50 = Histogram.percentile warm 50.0;
    warm_p99 = Histogram.percentile warm 99.0;
    hydrations;
    nc_hits;
    nc_misses }

(* ------------------------------------------------------------------ *)
(* Part B: hydration storm vs overload policy                          *)

type storm_sample = {
  policy_name : string;
  clients : int;
  capacity : int;
  completed : int;
  failed : int;  (* clean EIO from reject/shed — never torn *)
  rejected : int;
  shed : int;
  hwm : int;
  p99 : int;  (* over completed reads *)
  makespan : int;
  goodput : float;  (* completed hydrating reads per Mcycle *)
}

let policy_name = function
  | `Block -> "block"
  | `Reject -> "reject"
  | `Shed_oldest -> "shed-oldest"

let measure_storm ~quick ~seed ~policy =
  let clients = pick ~quick 24 64 in
  let capacity = 8 in
  let cat = Provider.catalog ~seed:3 ~nfiles:clients in
  let (completed, failed, rejected, shed, hwm, p99), stats =
    run ~seed ~cores:16 (fun () ->
        let pf =
          boot ~hydration:(Svc.config ~capacity ~policy ()) ~workers:2 ~cat ()
        in
        (* every reader faults at once: distinct cold files, one fiber
           each, all released in the same instant *)
        let lat = Histogram.create () in
        let completed = ref 0 and failed = ref 0 in
        let readers =
          List.init clients (fun i ->
              Fiber.spawn ~label:(Printf.sprintf "storm-%d" i) (fun () ->
                  let c = Projfs.client pf in
                  let rel = Provider.rel_path cat i in
                  let t0 = Fiber.now () in
                  match
                    full_read c cat (Projfs.mount_path pf ^ "/" ^ rel) rel
                  with
                  | Ok () ->
                    incr completed;
                    Histogram.record lat (Fiber.now () - t0)
                  | Error _ -> incr failed))
        in
        List.iter (fun f -> ignore (Fiber.join f)) readers;
        let ep = Projfs.hydrate_ep pf in
        ( !completed,
          !failed,
          Svc.rejected ep,
          Svc.shed ep,
          Svc.hwm ep,
          Histogram.percentile lat 99.0 ))
  in
  { policy_name = policy_name policy;
    clients;
    capacity;
    completed;
    failed;
    rejected;
    shed;
    hwm;
    p99;
    makespan = stats.Runstats.makespan;
    goodput = Runstats.throughput stats ~ops:completed }

(* ------------------------------------------------------------------ *)

let run ~quick ~seed =
  let o = measure_open ~quick ~seed in
  let a =
    Tablefmt.create
      ~title:
        "E23a: cold (placeholder fill over the wire) vs warm (name-cache \
         hit) open+read"
      ~columns:
        [ ("pass", Tablefmt.Left);
          ("files", Tablefmt.Right);
          ("p50 (cycles)", Tablefmt.Right);
          ("p99 (cycles)", Tablefmt.Right) ]
  in
  Tablefmt.add_row a
    [ "cold"; string_of_int o.files; string_of_int o.cold_p50;
      string_of_int o.cold_p99 ];
  Tablefmt.add_row a
    [ "warm"; string_of_int o.files; string_of_int o.warm_p50;
      string_of_int o.warm_p99 ];
  Tablefmt.add_row a
    [ "cold/warm p50"; "";
      Printf.sprintf "%.1fx"
        (float_of_int o.cold_p50 /. float_of_int (max 1 o.warm_p50));
      "" ];
  Tablefmt.add_row a
    [ "hydrations"; string_of_int o.hydrations; ""; "" ];
  Tablefmt.add_row a
    [ "name-cache hits/misses";
      Printf.sprintf "%d/%d" o.nc_hits o.nc_misses; ""; "" ];
  let b =
    Tablefmt.create
      ~title:
        "E23b: hydration storm (concurrent cold readers, capacity-8 \
         hydration inbox, 2 workers)"
      ~columns:
        [ ("policy", Tablefmt.Left);
          ("readers", Tablefmt.Right);
          ("completed", Tablefmt.Right);
          ("failed (EIO)", Tablefmt.Right);
          ("rejected", Tablefmt.Right);
          ("shed", Tablefmt.Right);
          ("queue hwm", Tablefmt.Right);
          ("p99 (cycles)", Tablefmt.Right);
          ("makespan", Tablefmt.Right);
          ("goodput/Mcyc", Tablefmt.Right) ]
  in
  List.iter
    (fun policy ->
      let s = measure_storm ~quick ~seed ~policy in
      Tablefmt.add_row b
        [ s.policy_name;
          string_of_int s.clients;
          string_of_int s.completed;
          string_of_int s.failed;
          string_of_int s.rejected;
          string_of_int s.shed;
          string_of_int s.hwm;
          string_of_int s.p99;
          string_of_int s.makespan;
          Tablefmt.cell_float s.goodput ])
    [ `Block; `Reject; `Shed_oldest ];
  [ a; b ]
