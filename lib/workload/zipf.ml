(* Open-loop Zipf-keyed load against the replicated cluster.

   Open loop means arrivals are a property of the offered load, not of
   the system's responsiveness: each simulated client draws exponential
   inter-arrival gaps (a Poisson process at the configured rate) and
   submits at the scheduled instants whether or not earlier operations
   have completed — the only coupling is the pipeline window, which
   models a connection's bounded in-flight buffer.  Latency is measured
   from the *intended* issue time, so queueing delay a saturated system
   inflicts shows up in p99 instead of silently throttling the
   generator (the closed-loop mistake the scalability literature warns
   about — see PAPERS.md). *)

module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Rng = Chorus_util.Rng
module Histogram = Chorus_util.Histogram
module Client = Chorus_cluster.Client

type config = {
  nkeys : int;
  nclients : int;
  depth : int;
  offered : int;  (* total ops per 1e6 cycles across all clients *)
  duration : int;  (* issue window, cycles *)
  read_fraction : float;
  call_timeout : int;  (* per-RPC client timeout, cycles *)
  op_budget : int option;  (* per-op deadline budget (Client.create) *)
  breaker : Client.breaker_config option;  (* per-node circuit breakers *)
  seed : int;
}

let theta = 0.99

let value_bytes = 16

let default_config ~seed =
  { nkeys = 1_000_000;
    nclients = 64;
    depth = 8;
    offered = 400;
    duration = 2_000_000;
    read_fraction = 0.9;
    call_timeout = 60_000;
    op_budget = None;
    breaker = None;
    seed }

type result = {
  submitted : int;
  completed : int;
  failed : int;
  reads : int;
  writes : int;
  elapsed : int;  (* first scheduled issue -> last completion *)
  throughput : float;  (* completed ops per 1e6 cycles of elapsed *)
  p50 : int;
  p99 : int;
  mean_latency : float;
  latency : Histogram.t;
  lat_get : Histogram.t;
  lat_put : Histogram.t;
  breaker_trips : int;  (* summed over clients; 0 without [breaker] *)
  breaker_skips : int;
  breaker_probes : int;
  deadline_misses : int;  (* 0 without [op_budget] *)
}

let key_of_rank rank = Printf.sprintf "k%07d" rank

(* One client connection: generator + deferred drain.  Nothing reads
   completions during the issue window, so the pipeline window is the
   only backpressure — exactly the bounded-buffer open-loop model. *)
let drive cfg ~fabric ~bootstrap ~zipf ~idx ~lat ~lat_get ~lat_put ~failed
    ~reads ~writes ~submitted ~last_done ~trips ~skips ~probes ~misses
    ~done_ch =
  let nic =
    Fabric.attach fabric ~label:(Printf.sprintf "loadgen%d" idx) ()
  in
  let stack = Stack.create fabric nic in
  let client =
    Client.create ~call_timeout:cfg.call_timeout ?op_budget:cfg.op_budget
      ?breaker:cfg.breaker
      ~seed:(cfg.seed + (7919 * idx))
      ~bootstrap stack
  in
  let pipe = Client.pipeline ~depth:cfg.depth client in
  let rng = Rng.make (cfg.seed lxor (0x21f00d + (131 * idx))) in
  let mean =
    float_of_int (cfg.nclients * 1_000_000) /. float_of_int cfg.offered
  in
  let value = String.make value_bytes 'v' in
  let sched = Hashtbl.create 64 in
  let t0 = Fiber.now () in
  let t_end = t0 + cfg.duration in
  let issued = ref 0 in
  let gap () = 1 + int_of_float (Rng.exponential rng mean) in
  let rec gen next_t =
    if next_t <= t_end then begin
      let now = Fiber.now () in
      if next_t > now then Fiber.sleep (next_t - now);
      let rank = Chorus_util.Zipf.sample zipf rng in
      let key = key_of_rank rank in
      let is_read = Rng.float rng 1.0 < cfg.read_fraction in
      let op =
        if is_read then begin
          incr reads;
          Client.Op_get key
        end
        else begin
          incr writes;
          Client.Op_put (key, value)
        end
      in
      let seq = Client.submit pipe op in
      Hashtbl.replace sched seq (next_t, is_read);
      incr issued;
      incr submitted;
      gen (next_t + gap ())
    end
  in
  gen (t0 + gap ());
  let compl_c = Client.completions pipe in
  for _ = 1 to !issued do
    let { Client.seq; at; result } = Chan.recv compl_c in
    let t_issue, is_read = Hashtbl.find sched seq in
    let d = at - t_issue in
    Histogram.record lat d;
    Histogram.record (if is_read then lat_get else lat_put) d;
    if at > !last_done then last_done := at;
    match result with
    | `Net_fail -> incr failed
    | `Ok | `Found _ | `Miss -> ()
  done;
  trips := !trips + Client.breaker_trips client;
  skips := !skips + Client.breaker_skips client;
  probes := !probes + Client.breaker_probes client;
  misses := !misses + Client.deadline_misses client;
  Chan.send done_ch ()

let run cfg ~fabric ~bootstrap =
  if cfg.nclients < 1 then invalid_arg "Zipf.run: nclients";
  if cfg.offered < 1 then invalid_arg "Zipf.run: offered";
  let zipf = Chorus_util.Zipf.make ~n:cfg.nkeys ~theta in
  let lat = Histogram.create () in
  let lat_get = Histogram.create () in
  let lat_put = Histogram.create () in
  let failed = ref 0
  and reads = ref 0
  and writes = ref 0
  and submitted = ref 0
  and last_done = ref 0
  and trips = ref 0
  and skips = ref 0
  and probes = ref 0
  and misses = ref 0 in
  let done_ch = Chan.buffered cfg.nclients in
  let t0 = Fiber.now () in
  for idx = 0 to cfg.nclients - 1 do
    ignore
      (Fiber.spawn
         ~label:(Printf.sprintf "zipf-client%d" idx)
         (fun () ->
           drive cfg ~fabric ~bootstrap ~zipf ~idx ~lat ~lat_get ~lat_put
             ~failed ~reads ~writes ~submitted ~last_done ~trips ~skips
             ~probes ~misses ~done_ch))
  done;
  for _ = 1 to cfg.nclients do
    Chan.recv done_ch
  done;
  let completed = Histogram.count lat in
  let elapsed = max 1 (!last_done - t0) in
  { submitted = !submitted;
    completed;
    failed = !failed;
    reads = !reads;
    writes = !writes;
    elapsed;
    throughput = float_of_int completed *. 1_000_000. /. float_of_int elapsed;
    p50 = Histogram.percentile lat 50.0;
    p99 = Histogram.percentile lat 99.0;
    mean_latency = Histogram.mean lat;
    latency = lat;
    lat_get;
    lat_put;
    breaker_trips = !trips;
    breaker_skips = !skips;
    breaker_probes = !probes;
    deadline_misses = !misses }
