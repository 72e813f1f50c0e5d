(* The chaos engine.  See chaos.mli for the story.

   Implementation notes, mostly about determinism and non-flakiness:

   - Everything a run observes is a function of its Schedule.t: the
     engine seed, the fault times, the fault RNG seeds.  Nothing here
     reads host time or host randomness, so digest equality across
     runs of the same schedule is exact, not statistical.

   - Clients record what *they* saw (History), using single-attempt
     calls with generous timeouts: a timed-out operation is Lost, and
     Lost is always safe for the checker (a lost write may take effect
     anytime-or-never, a lost read constrains nothing).  No client
     ever retries a write, so no write can be applied twice — the
     classic way chaos harnesses poison their own histories.

   - Oracle bounds (recovery deadlines, quiesce settles) are sized
     several times worse than the worst path through the scenario
     (retry storms, elections), so a violation means a broken system,
     not a tight constant. *)

module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine
module History = Chorus.History
module Runtime = Chorus.Runtime
module Rng = Chorus_util.Rng
module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Diskmodel = Chorus_machine.Diskmodel
module Svc = Chorus_svc.Svc
module Blockdev = Chorus_kernel.Blockdev
module Bcache = Chorus_kernel.Bcache
module Supervisor = Chorus_kernel.Supervisor
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client
module Raft = Chorus_cluster.Raft
module Faults = Chorus_workload.Faults
module Fsspec = Chorus_fsspec.Fsspec
module Cgalloc = Chorus_kernel.Cgalloc
module Msgvfs = Chorus_kernel.Msgvfs
module Provider = Chorus_projfs.Provider
module Projfs = Chorus_projfs.Projfs

type scenario = Disk | Kv | Kv_lease | Projfs | Gray

type outcome = {
  digest : string;
  violations : string list;
  injected : int;
  ops : int;
  leased_reads : int;
}

exception Chaos_kill
(* raised by the crash-point hook inside the victim's serve fiber *)

(* A scenario split into its three replayable phases: the engine
   configuration, the body to run on it, and the oracle/digest
   assembly.  run_one composes all three; the time-travel debugger
   (lib/debug) instead drives pmain through Engine.start/run_until and
   never calls pfinish. *)
type prepared = {
  pconfig : Runtime.config;
  pmain : unit -> unit;
  pfinish : unit -> outcome;
}

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

let live () = Engine.live_fibers (Engine.current ())

let serialize_history hist b =
  List.iter
    (fun (o : History.op) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s %s %d %d %s\n" o.proc
           (match o.kind with `Read -> "r" | `Write -> "w")
           o.key o.value o.invoked
           (if o.returned = max_int then -1 else o.returned)
           (match o.outcome with
           | None -> "pending"
           | Some History.Acked -> "acked"
           | Some (History.Value None) -> "miss"
           | Some (History.Value (Some v)) -> "=" ^ v
           | Some History.Lost -> "lost")))
    (History.ops hist)

(* The planted oracle violation for selftest: a completed read of a
   value nobody ever wrote.  Must be recorded inside the run (it
   stamps virtual times). *)
let plant_corruption hist =
  let op = History.invoke hist ~proc:13 ~kind:`Read ~key:"k0" () in
  History.return_ hist op (History.Value (Some "bogus-never-written"))

(* What one run records: the client history, the faults that fired,
   oracle violations, counter lines folded into the digest after the
   history, and the leased reads served (lease scenario only). *)
type run = {
  hist : History.t;
  fired : int ref;
  viols : string list ref;
  tail : Buffer.t;
  leased : int ref;
}

let viol r fmt = Printf.ksprintf (fun m -> r.viols := m :: !(r.viols)) fmt

let note r fmt = Printf.ksprintf (Buffer.add_string r.tail) fmt

let finish r =
  (match Lin.check_history r.hist with
  | `Ok -> ()
  | `Violation m -> r.viols := ("linearizability: " ^ m) :: !(r.viols));
  let violations = List.rev !(r.viols) in
  let b = Buffer.create 1024 in
  serialize_history r.hist b;
  Buffer.add_buffer b r.tail;
  List.iter
    (fun v ->
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    violations;
  { digest = Digest.to_hex (Digest.string (Buffer.contents b));
    violations;
    injected = !(r.fired);
    ops = History.length r.hist;
    leased_reads = !(r.leased) }

(* Every scenario runs [body] on a round-robin mesh seeded from its
   schedule, recording into a fresh [run]. *)
let scenario_run ~cores (sch : Schedule.t) body =
  let r =
    { hist = History.create ();
      fired = ref 0;
      viols = ref [];
      tail = Buffer.create 128;
      leased = ref 0 }
  in
  { pconfig =
      Runtime.config ~policy:(Policy.round_robin ()) ~seed:sch.Schedule.seed
        (Machine.mesh ~cores);
    pmain = (fun () -> body r);
    pfinish = (fun () -> finish r) }

(* The workload: client procs 0 and 1, spawned and joined in order. *)
let run_clients client =
  let c0 = Fiber.spawn ~label:"chaos-client-0" (fun () -> client 0) in
  let c1 = Fiber.spawn ~label:"chaos-client-1" (fun () -> client 1) in
  ignore (Fiber.join c0);
  ignore (Fiber.join c1)

(* Client operations, recorded: invoke, [perform], return its
   outcome. *)
let read r ~proc key perform =
  let op = History.invoke r.hist ~proc ~kind:`Read ~key () in
  let oc = perform () in
  History.return_ r.hist op oc;
  oc

let write r ~proc key v perform =
  let op = History.invoke r.hist ~proc ~kind:`Write ~key ~value:v () in
  History.return_ r.hist op (perform ())

(* Schedule-driven injection: [f ~add ~window] turns each fault into
   actions.  [add t g] runs [g] at [t]; [window at dur on off] runs
   [on] at [at], counted as a fired fault, and [off] at [at + dur].
   One injector runs them all; equal times are nudged apart so the
   sorted order is unambiguous. *)
let inject r (sch : Schedule.t) f =
  let actions = ref [] in
  let add t g = actions := (t, g) :: !actions in
  let window at dur on off =
    add at (fun () ->
        incr r.fired;
        on ());
    add (at + dur) off
  in
  List.iter (f ~add ~window) sch.Schedule.faults;
  match List.stable_sort (fun (a, _) (b, _) -> compare a b) !actions with
  | [] -> None
  | l ->
    let rec spread last = function
      | [] -> []
      | (t, g) :: rest ->
        let t = if t <= last then last + 1 else t in
        (t, g) :: spread t rest
    in
    let l = spread (-1) l in
    let arr = Array.of_list l in
    Some
      (Faults.start_schedule
         ~at:(List.map fst l)
         ~inject:(fun ~n ->
           (snd arr.(n - 1)) ();
           true))

(* The fabric's fault windows, whole-fabric and per-link; every other
   fault kind belongs to a scenario body. *)
let fabric_window net window = function
  | Schedule.Frame_loss { at; dur; p } ->
    window at dur
      (fun () -> Fabric.set_faults net ~loss:p ())
      (fun () -> Fabric.set_faults net ~loss:0.0 ())
  | Schedule.Frame_dup { at; dur; p } ->
    window at dur
      (fun () -> Fabric.set_faults net ~dup:p ())
      (fun () -> Fabric.set_faults net ~dup:0.0 ())
  | Schedule.Frame_reorder { at; dur; p } ->
    window at dur
      (fun () -> Fabric.set_faults net ~reorder:p ())
      (fun () -> Fabric.set_faults net ~reorder:0.0 ())
  | Schedule.Frame_delay { at; dur; p; cycles } ->
    window at dur
      (fun () -> Fabric.set_faults net ~delay:p ~delay_cycles:cycles ())
      (fun () -> Fabric.set_faults net ~delay:0.0 ())
  | Schedule.Link_delay { src; dst; at; dur; p; cycles } ->
    window at dur
      (fun () ->
        Fabric.set_link_faults net ~src ~dst ~delay:p ~delay_cycles:cycles ())
      (fun () -> Fabric.clear_link_faults net ~src ~dst)
  | Schedule.Partition { src; dst; at; dur } ->
    window at dur
      (fun () -> Fabric.set_link_faults net ~src ~dst ~partition:true ())
      (fun () -> Fabric.clear_link_faults net ~src ~dst)
  | Schedule.Kill_node _ | Schedule.Kill_point _ | Schedule.Disk_errors _
  | Schedule.Kill_provider _ -> ()

(* Wait out the injector, then zero every whole-fabric knob. *)
let clear_fabric inj net =
  Option.iter Faults.wait inj;
  Fabric.set_faults net ~loss:0.0 ~dup:0.0 ~reorder:0.0 ~delay:0.0 ()

(* Crash points: the first dequeue at a kill window's crash point
   inside the window kills the serving fiber, with the request it just
   dequeued (the projfs provider's point for [Kill_provider]).
   Returns the disarm.  Kill windows are hook-based, not
   injector-based: a window opening after the workload drains would
   otherwise still be armed and kill the recovery probe itself, so
   the disarm waits the windows out before claiming "faults
   cleared". *)
let arm_crashpoints r (sch : Schedule.t) =
  let windows =
    List.filter_map
      (function
        | Schedule.Kill_point { point; at; dur } ->
          Some (point, at, dur, ref false)
        | Schedule.Kill_provider { at; dur } ->
          Some (Provider.crashpoint, at, dur, ref false)
        | _ -> None)
      sch.Schedule.faults
  in
  Svc.set_crashpoint
    (Some
       (fun name ->
         let now = Fiber.now () in
         List.iter
           (fun (pt, at, dur, spent) ->
             if
               (not !spent) && String.equal pt name && now >= at
               && now < at + dur
             then begin
               spent := true;
               incr r.fired;
               raise Chaos_kill
             end)
           windows));
  fun () ->
    let faults_end =
      List.fold_left (fun acc (_, at, dur, _) -> max acc (at + dur)) 0 windows
    in
    let now = Fiber.now () in
    if faults_end > now then Fiber.sleep (faults_end - now);
    Svc.set_crashpoint None

(* Final reads close the history and back the durability oracle: an
   acked write must still be readable, and any readable value must
   have been written.  [get key] performs one read, recorded as proc
   9. *)
let final_reads r keys get =
  Array.iter
    (fun key ->
      let writes =
        List.filter
          (fun (o : History.op) -> o.kind = `Write && o.key = key)
          (History.ops r.hist)
      in
      let acked =
        List.exists (fun (o : History.op) -> o.outcome = Some History.Acked) writes
      in
      match read r ~proc:9 key (fun () -> get key) with
      | History.Value (Some v) ->
        if not (List.exists (fun (o : History.op) -> o.value = v) writes) then
          viol r "durability: key %s holds never-written value %s" key v
      | History.Value None ->
        if acked then viol r "durability: key %s lost its acked write(s)" key
      | History.Acked | History.Lost ->
        viol r "recovery: final read of %s got no answer" key)
    keys

(* Quiescence: the run may end with no more live fibers than it
   started with.  Returns the end count for the counter line. *)
let check_leaks r ~baseline =
  let end_live = live () in
  if end_live > baseline then
    viol r "quiesce: %d live fibers leaked (%d > %d)" (end_live - baseline)
      end_live baseline;
  end_live

(* ------------------------------------------------------------------ *)
(* Disk scenario: supervised KV store over Bcache + Blockdev           *)

type store_req = Put of string * string | Get of string

type store_resp = Ack | Val of string option

let key_block k = Char.code k.[1] - Char.code '0'

let disk_op_timeout = 400_000

let disk_recovery_bound = 800_000

let prepare_disk ~corrupt (sch : Schedule.t) =
  scenario_run ~cores:8 sch @@ fun r ->
  let dev = Blockdev.start ~disk:Diskmodel.default () in
  let cache = Bcache.start ~shards:2 ~capacity:64 ~dev () in
  let ep : (store_req, store_resp) Svc.t =
    Svc.create ~subsystem:"chaos" ~label:"store" ()
  in
  let handler = function
    | Put (k, v) ->
      Bcache.put cache (key_block k) ~off:0 (v ^ "\n");
      Ack
    | Get k -> (
      let s = Bcache.get_range cache (key_block k) ~off:0 ~len:32 in
      match String.index_opt s '\n' with
      | Some i -> Val (Some (String.sub s 0 i))
      | None -> Val None)
  in
  let words_of_resp = function
    | Ack | Val None -> 2
    | Val (Some s) -> 2 + ((String.length s + 7) / 8)
  in
  let sup =
    Supervisor.start ~max_restarts:100 ~window:1_000_000_000
      Supervisor.One_for_one
      [ { Supervisor.cname = "store";
          cstart = Svc.starter ~words_of_resp ep handler } ]
  in
  let disarm = arm_crashpoints r sch in
  let baseline = live () in
  let inj =
    inject r sch (fun ~add:_ ~window -> function
      | Schedule.Disk_errors { at; dur; p } ->
        window at dur
          (fun () ->
            Blockdev.set_read_fault dev ~p ~seed:(sch.Schedule.seed + at) ())
          (fun () -> Blockdev.set_read_fault dev ())
      | _ -> ())
  in
  (* workload: 2 procs x 10 single-attempt ops on 4 shared keys *)
  let keys = [| "k0"; "k1"; "k2"; "k3" |] in
  (* one single-attempt call: [map] the reply, or [late] at [timeout] *)
  let call ~timeout ~late req map =
    let reply = Svc.call_async ~words:4 ep req in
    Chan.choose
      [ Chan.recv_case reply map; Chan.after timeout (fun () -> late) ]
  in
  let one_shot = call ~timeout:disk_op_timeout ~late:History.Lost in
  let get key =
    one_shot (Get key) (function
      | `Ok (Val vo) -> History.Value vo
      | `Ok Ack | `Busy -> History.Lost)
  in
  let client proc =
    for i = 0 to 9 do
      Fiber.sleep (15_000 + ((((proc * 7) + (i * 13)) mod 9) * 4_000));
      let key = keys.((proc + (2 * i)) mod 4) in
      if i mod 3 = 2 then ignore (read r ~proc key (fun () -> get key))
      else
        let v = Printf.sprintf "p%d-%d" proc i in
        write r ~proc key v (fun () ->
            one_shot (Put (key, v)) (function
              | `Ok Ack -> History.Acked
              | `Ok (Val _) | `Busy -> History.Lost))
    done
  in
  run_clients client;
  Option.iter Faults.wait inj;
  Blockdev.set_read_fault dev ();
  disarm ();
  (* recovery oracle: the (supervised, possibly just restarted) store
     must answer again within the bound *)
  let t0 = Fiber.now () in
  if
    call ~timeout:disk_recovery_bound ~late:false (Get "k0") (function
      | `Ok _ -> true
      | `Busy -> false)
  then note r "recovered=%d\n" (Fiber.now () - t0)
  else
    viol r "recovery: store silent %d cycles after faults cleared"
      disk_recovery_bound;
  final_reads r keys get;
  if corrupt then plant_corruption r.hist;
  (* quiesce: stop the supervised store, then nothing may be left
     running or queued beyond what the run started with *)
  Supervisor.stop sup;
  Fiber.sleep 60_000;
  let depth = Svc.depth ep in
  if depth > 0 then viol r "quiesce: %d requests stuck in store inbox" depth;
  let end_live = check_leaks r ~baseline in
  note r "injected=%d read_errors=%d retries=%d restarts=%d live=%d end=%d\n"
    !(r.fired) (Blockdev.read_errors dev) (Bcache.read_retries cache)
    (Supervisor.restarts sup) end_live (Fiber.now ())

let disk_faults rng =
  if Rng.bool rng then
    Schedule.Kill_point
      { point = "chaos.store";
        at = 30_000 + Rng.int rng 570_000;
        dur = 50_000 + Rng.int rng 150_000 }
  else
    Schedule.Disk_errors
      { at = 30_000 + Rng.int rng 470_000;
        dur = 80_000 + Rng.int rng 220_000;
        p = 0.2 +. (0.25 *. float_of_int (Rng.int rng 3)) }

(* ------------------------------------------------------------------ *)
(* Kv scenarios: the replicated cluster over a faulty fabric           *)

let kv_settle = 1_000_000

let kv_node_deadline = 3_000_000

let kv_probe_deadline = 2_000_000

(* Gray scenario: the workload clients run with circuit breakers and a
   per-operation deadline budget, and the fail-fast liveness oracle
   holds every one of their operations to [budget + slack].  The slack
   covers the pre-deadline machinery (one bootstrap map fetch at
   ~3 nodes x 2 x 60k worst case) plus the RPC in flight when the
   budget expires (timeout clamped to the remaining budget, 2 stack
   attempts) — sized several times worse than that worst path, so a
   violation means an op that truly outlived its budget (a hang, a
   retry loop that ignored the deadline), not a tight constant. *)
let gray_op_budget = 600_000

let gray_liveness_slack = 2_500_000

let gray_breaker = { Client.trip_after = 3; cooldown = 400_000 }

(* [lease] is the Kv_lease scenario: same topology, same workload, but
   the raft groups run with leader leases AND group-commit batching on
   — the whole batched/leased hot path under node kills and fabric
   faults.  The stale-read hazard a lease introduces (a deposed leader
   serving a local read after a new leader acked a newer write) would
   surface as a linearizability violation on the recorded history, so
   "0 violations" is exactly the lease-safety claim of DESIGN.md D13. *)
(* [gray] is the gray-failure scenario: same topology and workload,
   but the fault palette is per-link (a slow-but-alive node, an
   asymmetric partition) and the workload clients defend themselves
   with circuit breakers and per-op deadline budgets.  The liveness
   oracle then rides beside linearizability: every workload op must
   return — complete or fail — within its budget (plus slack), no
   hangs.  *)
let prepare_kv ~lease ~gray ~corrupt (sch : Schedule.t) =
  scenario_run ~cores:16 sch @@ fun r ->
  let net = Fabric.create ~latency:5_000 ~seed:(sch.Schedule.seed + 1) () in
  let raft =
    if not lease then None
    else
      Some
        { (Raft.default_config ~seed:sch.Schedule.seed) with
          Raft.lease = true;
          batch_window = 8_000;
          max_append = 64 }
  in
  let c =
    Cluster.create ?raft ~nshards:2 ~replication:3 ~seed:sch.Schedule.seed
      ~nnodes:3 net
  in
  Cluster.start ~max_restarts:100 ~window:1_000_000_000 c;
  let mk ?attempts ?breaker ?op_budget s label =
    Client.create ?attempts ?breaker ?op_budget ~seed:(sch.Schedule.seed + s)
      ~bootstrap:(Cluster.addrs c)
      (Stack.create net (Fabric.attach net ~label ()))
  in
  (* workload clients never retry an operation (attempts:1): a write
     either acks or is Lost — retrying would risk applying it twice,
     which no register history can absorb.  In the gray scenario they
     additionally carry breakers and a deadline budget — the defenses
     under test. *)
  let mk_wl s label =
    if gray then
      mk ~attempts:1 ~breaker:gray_breaker ~op_budget:gray_op_budget s label
    else mk ~attempts:1 s label
  in
  let wl = [| mk_wl 101 "wl0"; mk_wl 102 "wl1" |] in
  let probe = mk 103 "probe" in
  Fiber.sleep kv_settle;
  let baseline = live () in
  let inj =
    inject r sch (fun ~add ~window -> function
      | Schedule.Kill_node { node; at } ->
        add at (fun () ->
            if Cluster.node_up c node then begin
              incr r.fired;
              Cluster.crash_node c node
            end)
      | f -> fabric_window net window f)
  in
  let keys = [| "k0"; "k1"; "k2" |] in
  let get client key =
    match Client.get client key with
    | `Found v -> History.Value (Some v)
    | `Miss -> History.Value None
    | `Net_fail -> History.Lost
  in
  let client proc =
    for i = 0 to 7 do
      Fiber.sleep (40_000 + ((((proc * 11) + (i * 17)) mod 7) * 20_000));
      let key = keys.((proc + i) mod 3) in
      if i mod 3 = 2 then
        ignore (read r ~proc key (fun () -> get wl.(proc) key))
      else
        let v = Printf.sprintf "p%d-%d" proc i in
        write r ~proc key v (fun () ->
            match Client.put wl.(proc) key v with
            | `Ok -> History.Acked
            | `Net_fail -> History.Lost)
    done
  in
  run_clients client;
  (* fail-fast liveness oracle: under gray faults every workload op
     must have returned — acked, answered or failed — within its
     deadline budget.  An op that outlived budget + slack hung
     somewhere the deadline machinery should have cut. *)
  if gray then begin
    let bound = gray_op_budget + gray_liveness_slack in
    List.iter
      (fun (o : History.op) ->
        let kind = match o.kind with `Read -> "read" | `Write -> "write" in
        if o.proc <= 1 then
          if o.returned = max_int then
            viol r "liveness: proc %d %s %s never returned" o.proc kind o.key
          else if o.returned - o.invoked > bound then
            viol r
              "liveness: proc %d %s %s took %d cycles (budget %d + slack %d)"
              o.proc kind o.key (o.returned - o.invoked) gray_op_budget
              gray_liveness_slack)
      (History.ops r.hist);
    (* defense evidence, folded into the digest: a green gray campaign
       in which no breaker ever tripped and no link fault ever fired
       proves much less *)
    let sum f = Array.fold_left (fun a c -> a + f c) 0 wl in
    let ls = Fabric.link_stats net in
    note r
      "gray: trips=%d skips=%d probes=%d misses=%d link_delayed=%d \
       link_dropped=%d partitioned=%d\n"
      (sum Client.breaker_trips) (sum Client.breaker_skips)
      (sum Client.breaker_probes) (sum Client.deadline_misses)
      ls.Fabric.link_delayed ls.Fabric.link_dropped ls.Fabric.partitioned
  end;
  clear_fabric inj net;
  (* recovery oracle 1: supervision heals every crashed node *)
  let deadline = Fiber.now () + kv_node_deadline in
  let rec wait_up () =
    if List.for_all (Cluster.node_up c) (Cluster.addrs c) then true
    else if Fiber.now () >= deadline then false
    else begin
      Fiber.sleep 50_000;
      wait_up ()
    end
  in
  if not (wait_up ()) then
    viol r "recovery: crashed node not restarted within %d cycles"
      kv_node_deadline;
  (* recovery oracle 2: the data plane answers again *)
  let t0 = Fiber.now () in
  let rec probe_put () =
    match Client.put probe "probe-key" "up" with
    | `Ok ->
      note r "recovered=%d\n" (Fiber.now () - t0);
      true
    | `Net_fail ->
      if Fiber.now () - t0 > kv_probe_deadline then false else probe_put ()
  in
  if not (probe_put ()) then
    viol r "recovery: cluster silent %d cycles after faults cleared"
      kv_probe_deadline;
  final_reads r keys (get probe);
  if corrupt then plant_corruption r.hist;
  (* lease-path evidence, folded into the digest: a green lease
     campaign that never served a leased read proves nothing.
     Counters on nodes that crashed and restarted reset — this
     undercounts, never overcounts. *)
  if lease then begin
    let lr = ref 0 and ld = ref 0 and gc = ref 0 in
    List.iter
      (fun addr ->
        for shard = 0 to 1 do
          match Cluster.raft_of c ~node:addr ~shard with
          | None -> ()
          | Some rf ->
            lr := !lr + Raft.leased_reads rf;
            ld := !ld + Raft.lease_denied rf;
            gc := !gc + Raft.group_commits rf
        done)
      (Cluster.addrs c);
    r.leased := !lr;
    note r "leased=%d denied=%d group_commits=%d\n" !lr !ld !gc
  end;
  Cluster.stop c;
  Fiber.sleep 100_000;
  let end_live = check_leaks r ~baseline in
  note r
    "injected=%d elections=%d leader_changes=%d crashes=%d restarts=%d \
     live=%d end=%d\n"
    !(r.fired)
    (Cluster.elections_started c)
    (Cluster.leader_changes c) (Cluster.node_crashes c) (Cluster.restarts c)
    end_live (Fiber.now ())

let kv_faults rng =
  match Rng.int rng 5 with
  | 0 ->
    Schedule.Kill_node { node = Rng.int rng 3; at = 1_050_000 + Rng.int rng 1_150_000 }
  | 1 ->
    Schedule.Frame_loss
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.05 +. (0.1 *. float_of_int (Rng.int rng 4)) }
  | 2 ->
    Schedule.Frame_dup
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.1 +. (0.15 *. float_of_int (Rng.int rng 3)) }
  | 3 ->
    Schedule.Frame_reorder
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.1 +. (0.15 *. float_of_int (Rng.int rng 3)) }
  | _ ->
    Schedule.Frame_delay
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.1 +. (0.1 *. float_of_int (Rng.int rng 3));
        cycles = 20_000 + Rng.int rng 60_000 }

(* the faults a lease could turn into a stale read: leader kills
   carry double weight, and the fabric windows are the partition-ish
   ones (loss and delay isolate a leader that still thinks it holds a
   lease; dup/reorder don't) *)
let lease_faults rng =
  match Rng.int rng 4 with
  | 0 | 1 ->
    Schedule.Kill_node
      { node = Rng.int rng 3; at = 1_050_000 + Rng.int rng 1_150_000 }
  | 2 ->
    Schedule.Frame_loss
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.05 +. (0.1 *. float_of_int (Rng.int rng 4)) }
  | _ ->
    Schedule.Frame_delay
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 600_000;
        p = 0.1 +. (0.1 *. float_of_int (Rng.int rng 3));
        cycles = 20_000 + Rng.int rng 60_000 }

(* the gray palette is per-link and asymmetric: a direction of one
   node's traffic crawls (delay cycles several times the client RPC
   timeout — alive for heartbeats, dead for callers) or silently
   vanishes, while every other link stays healthy.  Link-delay windows
   carry double weight: slow-but-alive is the headline failure.  Node
   addresses 0..2 are the cluster nodes (attach order). *)
let gray_faults rng =
  let src = Rng.int rng 3 in
  let dst = (src + 1 + Rng.int rng 2) mod 3 in
  match Rng.int rng 4 with
  | 0 | 1 ->
    Schedule.Link_delay
      { src;
        dst;
        at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 300_000 + Rng.int rng 700_000;
        p = 0.5 +. (0.15 *. float_of_int (Rng.int rng 3));
        cycles = 150_000 + Rng.int rng 250_000 }
  | 2 ->
    Schedule.Partition
      { src;
        dst;
        at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 300_000 + Rng.int rng 500_000 }
  | _ ->
    (* one symmetric ingredient keeps elections in the mix: the slow
       node can also lose whole-fabric frames *)
    Schedule.Frame_loss
      { at = 1_050_000 + Rng.int rng 1_000_000;
        dur = 200_000 + Rng.int rng 400_000;
        p = 0.05 +. (0.1 *. float_of_int (Rng.int rng 3)) }

(* ------------------------------------------------------------------ *)
(* Projfs scenario: projected mount hydrating from a supervised
   provider over a faulty fabric.

   The placeholder invariant rides on the linearizability oracle: the
   catalog is immutable, so before any client runs, every file the
   workload can touch is recorded as written-once with its exact
   catalog contents.  A read that returns anything else — a torn
   hydration, bytes from the wrong file, a partial fill exposed by a
   provider kill mid-hydration — is then a read of a never-written
   value, precisely what the checker rejects; a hydration that fails
   is Lost, which constrains nothing.  "Every fd fully hydrated or
   cleanly failed" becomes a checkable register property. *)

let projfs_recovery_bound = 1_500_000

let prepare_projfs ~corrupt (sch : Schedule.t) =
  scenario_run ~cores:16 sch @@ fun r ->
  let nops = 12 in
  let cat =
    Provider.catalog ~seed:sch.Schedule.seed ~nfiles:128 ~dir_width:32 ()
  in
  let net = Fabric.create ~latency:5_000 ~seed:(sch.Schedule.seed + 1) () in
  let pstack = Stack.create net (Fabric.attach net ~label:"provider" ()) in
  let mstack = Stack.create net (Fabric.attach net ~label:"mount" ()) in
  let server = Provider.make () in
  let sup =
    Supervisor.start ~max_restarts:100 ~window:1_000_000_000
      Supervisor.One_for_one
      [ { Supervisor.cname = "provider";
          cstart = Provider.starter server cat pstack } ]
  in
  let dev = Blockdev.start ~disk:Diskmodel.default () in
  let cache = Bcache.start ~shards:2 ~capacity:128 ~dev () in
  let alloc = Cgalloc.start ~nblocks:2048 () in
  let fs = Msgvfs.mount Msgvfs.default_config ~bcache:cache ~alloc in
  let pf =
    match
      Projfs.mount ~workers:2 ~fs ~at:"/proj" ~stack:mstack
        ~provider:(Stack.addr pstack) ()
    with
    | Ok pf -> pf
    | Error e ->
      failwith ("chaos projfs: mount failed: " ^ Fsspec.err_to_string e)
  in
  (* the provider's serving fiber dies at its first dequeue inside each
     kill window; the supervisor re-serves the port (stack-side dedup
     cache intact) *)
  let disarm = arm_crashpoints r sch in
  let inj = inject r sch (fun ~add:_ ~window -> fabric_window net window) in
  (* the workload's read set, plus one file it never touches for the
     post-fault cold-hydration probe *)
  let file_idx proc i = ((proc * 13) + (i * 7)) mod cat.Provider.nfiles in
  let used = Hashtbl.create 32 in
  for proc = 0 to 1 do
    for i = 0 to nops - 1 do
      Hashtbl.replace used (file_idx proc i) ()
    done
  done;
  let cold_idx =
    let rec go i = if Hashtbl.mem used i then go (i + 1) else i in
    go 0
  in
  Hashtbl.replace used cold_idx ();
  let seeded =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) used [])
  in
  (* immutable-register seeding: one acked write per reachable file,
     carrying the exact catalog contents *)
  List.iter
    (fun idx ->
      let rel = Provider.rel_path cat idx in
      let v = Option.get (Provider.content cat rel) in
      write r ~proc:8 rel v (fun () -> History.Acked))
    seeded;
  (* pre-walk: spawn every reachable vnode (a stat walks but does not
     hydrate) so the quiescence baseline includes the namespace itself
     and only transient fibers count as leaks *)
  let prewalk = Projfs.client pf in
  List.iter
    (fun idx ->
      let path = Projfs.mount_path pf ^ "/" ^ Provider.rel_path cat idx in
      ignore (Projfs.stat prewalk path))
    seeded;
  let baseline = live () in
  let read_file c path =
    match Projfs.open_ c path with
    | Error _ -> History.Lost
    | Ok fd ->
      let res = Projfs.read c fd ~off:0 ~len:Fsspec.block_size in
      ignore (Projfs.close c fd);
      (match res with
      | Ok data -> History.Value (Some data)
      | Error _ -> History.Lost)
  in
  (* a recorded whole-file read; true if it completed.  The lin checker
     will reject a torn read too; name the broken invariant directly *)
  let checked_read ~proc c rel path =
    match read r ~proc rel (fun () -> read_file c path) with
    | History.Value (Some data) ->
      if not (String.equal data (Option.get (Provider.content cat rel))) then
        viol r "placeholder: %s read torn/fabricated contents" rel;
      true
    | _ -> false
  in
  let client proc =
    let c = Projfs.client pf in
    for i = 0 to nops - 1 do
      Fiber.sleep (30_000 + ((((proc * 7) + (i * 13)) mod 9) * 15_000));
      let rel = Provider.rel_path cat (file_idx proc i) in
      let path = Projfs.mount_path pf ^ "/" ^ rel in
      if i mod 5 = 4 then
        (* background hydration traffic crossing the fault windows;
           sheds and failures are invisible to the history (prefetch
           is advice) *)
        Projfs.prefetch pf path
      else ignore (checked_read ~proc c rel path)
    done
  in
  run_clients client;
  clear_fabric inj net;
  disarm ();
  (* recovery oracle: a never-touched file cold-hydrates within the
     bound once the (restarted) provider answers again *)
  let probe_client = Projfs.client pf in
  let rel = Provider.rel_path cat cold_idx in
  let path = Projfs.mount_path pf ^ "/" ^ rel in
  let t0 = Fiber.now () in
  let rec probe () =
    if checked_read ~proc:9 probe_client rel path then begin
      note r "recovered=%d\n" (Fiber.now () - t0);
      true
    end
    else if Fiber.now () - t0 > projfs_recovery_bound then false
    else begin
      Fiber.sleep 50_000;
      probe ()
    end
  in
  if not (probe ()) then
    viol r "recovery: provider silent %d cycles after faults cleared"
      projfs_recovery_bound;
  if corrupt then plant_corruption r.hist;
  Supervisor.stop sup;
  Fiber.sleep 60_000;
  let depth = Svc.depth (Projfs.hydrate_ep pf) in
  if depth > 0 then viol r "quiesce: %d hydrations stuck in inbox" depth;
  let end_live = check_leaks r ~baseline in
  note r
    "injected=%d hydrations=%d hyd_failures=%d placeholders=%d requests=%d \
     restarts=%d live=%d end=%d\n"
    !(r.fired) (Msgvfs.hydrations fs) (Msgvfs.hydration_failures fs)
    (Msgvfs.placeholders_live fs)
    (Provider.requests server)
    (Supervisor.restarts sup) end_live (Fiber.now ())

(* provider kills carry double weight: mid-hydration death is the
   scenario's headline fault *)
let projfs_faults rng =
  match Rng.int rng 4 with
  | 0 | 1 ->
    Schedule.Kill_provider
      { at = 250_000 + Rng.int rng 950_000;
        dur = 100_000 + Rng.int rng 200_000 }
  | 2 ->
    Schedule.Frame_loss
      { at = 250_000 + Rng.int rng 800_000;
        dur = 150_000 + Rng.int rng 350_000;
        p = 0.1 +. (0.15 *. float_of_int (Rng.int rng 3)) }
  | _ ->
    Schedule.Frame_delay
      { at = 250_000 + Rng.int rng 800_000;
        dur = 150_000 + Rng.int rng 350_000;
        p = 0.1 +. (0.1 *. float_of_int (Rng.int rng 3));
        cycles = 20_000 + Rng.int rng 60_000 }

(* ------------------------------------------------------------------ *)
(* The scenario registry: the only place a scenario is described      *)

type entry = {
  scenario : scenario;
  name : string;
  aliases : string list;
  doc : string;
  default_runs : int;
  prepare : corrupt:bool -> Schedule.t -> prepared;
  faults : Rng.t -> Schedule.fault;
}

let scenarios =
  [ { scenario = Disk;
      name = "disk";
      aliases = [];
      doc =
        "supervised store over the buffer cache; store-fiber kills and \
         disk read-error windows";
      default_runs = 24;
      prepare = prepare_disk;
      faults = disk_faults };
    { scenario = Kv;
      name = "kv";
      aliases = [ "cluster" ];
      doc =
        "replicated cluster; node crashes and fabric \
         loss/dup/reorder/delay windows";
      default_runs = 8;
      prepare = prepare_kv ~lease:false ~gray:false;
      faults = kv_faults };
    { scenario = Projfs;
      name = "projfs";
      aliases = [];
      doc =
        "projected mount hydrating from a supervised provider; provider \
         kills and fabric loss/delay (placeholder-invariant oracle)";
      default_runs = 0;
      prepare = prepare_projfs;
      faults = projfs_faults };
    { scenario = Kv_lease;
      name = "lease";
      aliases = [ "kv-lease" ];
      doc =
        "cluster on the batched, leased hot path; leader kills and \
         partition-ish fabric windows (stale leased reads violate \
         linearizability)";
      default_runs = 0;
      prepare = prepare_kv ~lease:true ~gray:false;
      faults = lease_faults };
    { scenario = Gray;
      name = "gray";
      aliases = [];
      doc =
        "cluster with breaker and deadline clients; per-link delay and \
         asymmetric partition windows (fail-fast liveness oracle)";
      default_runs = 0;
      prepare = prepare_kv ~lease:false ~gray:true;
      faults = gray_faults } ]

let entry s = List.find (fun e -> e.scenario = s) scenarios

let name s = (entry s).name

let of_name n =
  List.find_map
    (fun e ->
      if String.equal e.name n || List.mem n e.aliases then Some e.scenario
      else None)
    scenarios

let prepare ?(corrupt = false) scenario sch =
  (entry scenario).prepare ~corrupt sch

let run_one ?corrupt scenario sch =
  let p = prepare ?corrupt scenario sch in
  Fun.protect ~finally:(fun () -> Svc.set_crashpoint None) @@ fun () ->
  let (_ : Chorus.Runstats.t) = Runtime.run p.pconfig p.pmain in
  p.pfinish ()

let rec init_in_order n f = if n = 0 then [] else f () :: init_in_order (n - 1) f

let gen scenario ~seed ~index =
  let rng = Rng.make ((seed * 1_000_003) + (index * 7919) + 11) in
  let sseed = seed + (31 * index) in
  let n = if index = 0 then 0 else 1 + Rng.int rng 3 in
  let fault = (entry scenario).faults in
  { Schedule.seed = sseed; faults = init_in_order n (fun () -> fault rng) }

(* ------------------------------------------------------------------ *)
(* Shrinking and campaigns                                             *)

let shrink ?(corrupt = false) scenario sch =
  let violating s = (run_one ~corrupt scenario s).violations <> [] in
  if not (violating sch) then sch
  else
    let rec go s =
      match List.find_opt violating (Schedule.subschedules s) with
      | Some s' -> go s'
      | None -> s
    in
    go sch

type violation = {
  vscenario : scenario;
  schedule : Schedule.t;
  minimal : Schedule.t;
  first : string;
  replay_identical : bool;
}

type report = {
  runs : int;
  total_ops : int;
  faults_injected : int;
  kinds : (string * int) list;
  violations : violation list;
  campaign_digest : string;
}

(* Campaigns shard across domains: schedules are generated host-side
   (cheap, deterministic), each worker runs whole explorations — run,
   replay-verify, shrink — for the task indices it claims, and the
   merge walks the results in task order.  Task order is the order of
   [runs], so every aggregate — counts, kind histogram, violation
   list, campaign digest — is byte-identical at any [domains]. *)
let campaign ?(domains = 1) ~seed runs =
  let tasks =
    Array.of_list
      (List.concat_map (fun (s, n) -> List.init n (fun i -> (s, i))) runs)
  in
  let explore ti =
    let scenario, index = tasks.(ti) in
    let sch = gen scenario ~seed ~index in
    let o = run_one scenario sch in
    let viol =
      if o.violations = [] then None
      else begin
        (* a violation must replay from its schedule alone, and its
           shrunk form must still violate — otherwise the "reproducer"
           is worthless and we say so *)
        let o2 = run_one scenario sch in
        let minimal = shrink scenario sch in
        let om = run_one scenario minimal in
        Some
          { vscenario = scenario;
            schedule = sch;
            minimal;
            first = List.hd o.violations;
            replay_identical =
              String.equal o.digest o2.digest && om.violations <> [] }
      end
    in
    (sch, o, viol)
  in
  let results =
    Chorus_par.Pool.run ~domains ~tasks:(Array.length tasks) explore
  in
  let kinds : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k))
  in
  let injected = ref 0
  and total_ops = ref 0
  and digests = Buffer.create 256 in
  List.iter
    (fun (sch, o, _) ->
      List.iter (fun f -> bump (Schedule.kind f)) sch.Schedule.faults;
      injected := !injected + o.injected;
      total_ops := !total_ops + o.ops;
      Buffer.add_string digests o.digest)
    results;
  { runs = Array.length tasks;
    total_ops = !total_ops;
    faults_injected = !injected;
    kinds =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
    violations = List.filter_map (fun (_, _, v) -> v) results;
    campaign_digest = Digest.to_hex (Digest.string (Buffer.contents digests)) }

type selftest_result = {
  caught : bool;
  minimal_faults : int;
  st_replay_identical : bool;
}

let selftest ~seed =
  (* index 2 always carries at least one fault: shrinking must strip
     it, because the planted corruption violates on its own *)
  let sch = gen Disk ~seed ~index:2 in
  let o = run_one ~corrupt:true Disk sch in
  let minimal = shrink ~corrupt:true Disk sch in
  let o1 = run_one ~corrupt:true Disk minimal in
  let o2 = run_one ~corrupt:true Disk minimal in
  { caught =
      List.exists
        (fun v ->
          String.length v >= 15 && String.sub v 0 15 = "linearizability")
        o.violations;
    minimal_faults = Schedule.nfaults minimal;
    st_replay_identical =
      String.equal o1.digest o2.digest
      && o1.violations = o2.violations
      && o1.violations <> [] }
