module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Stack = Chorus_net.Stack
module Rng = Chorus_util.Rng
module Rcu = Chorus_util.Rcu
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span

(* Circuit breaker, per target node, on the virtual clock.  Closed
   passes traffic and counts consecutive failures; [trip_after] of
   them opens the breaker for [cooldown] cycles, during which the
   routing layer steers around the node; at cooldown expiry the next
   operation to consider the node becomes the half-open probe — its
   verdict alone closes or re-opens the breaker.  Any successful
   response (including a leader redirect: the node answered) resets
   the failure count. *)
type breaker_config = { trip_after : int; cooldown : int }

type breaker_state = [ `Closed | `Open | `Half_open ]

type node_breaker = {
  mutable bst : [ `Closed | `Open_until of int | `Half_open ];
  mutable fails : int;  (* consecutive failures while closed *)
}

type t = {
  stack : Stack.t;
  bootstrap : int list;
  attempts : int;
  call_timeout : int;
  breaker : breaker_config option;
  op_budget : int option;
      (* per-operation deadline budget in cycles: an operation that
         outlives it fails fast with [`Net_fail] instead of burning
         its remaining attempts *)
  breakers : (int, node_breaker) Hashtbl.t;  (* node addr -> breaker *)
  rng : Rng.t;
  map : Shardmap.snapshot option Rcu.t;
      (* RCU-published routing snapshot: the op hot path reads it
         lock-free; a stale-map verdict publishes a fresh one *)
  hints : (int, int) Hashtbl.t;  (* shard -> last known leader *)
  mutable retries : int;
  mutable redirects : int;
  mutable failed : int;
  mutable trips : int;  (* closed/half-open -> open transitions *)
  mutable breaker_skips : int;  (* routing decisions steered off an open node *)
  mutable probes : int;  (* open -> half-open transitions *)
  mutable deadline_misses : int;  (* ops failed fast on the op budget *)
  (* pipeline stats (one pipeline per client at most) *)
  mutable inflight : int;
  mutable inflight_hwm : int;
  mutable submitted : int;
  mutable completed : int;
  mutable pipe_depth : int;  (* 0 = no pipeline created *)
  put_h : Metrics.histogram;
  get_h : Metrics.histogram;
}

let backoff_base = 15_000

let backoff_cap = 120_000

let create ?(attempts = 10) ?(call_timeout = 60_000) ?breaker ?op_budget ~seed
    ~bootstrap stack =
  if bootstrap = [] then invalid_arg "Client.create: no bootstrap nodes";
  (match breaker with
  | Some { trip_after; cooldown } when trip_after < 1 || cooldown < 1 ->
    invalid_arg "Client.create: breaker needs trip_after/cooldown >= 1"
  | _ -> ());
  (match op_budget with
  | Some b when b < 1 -> invalid_arg "Client.create: op_budget must be >= 1"
  | _ -> ());
  let t =
    { stack;
      bootstrap;
      attempts;
      call_timeout;
      breaker;
      op_budget;
      breakers = Hashtbl.create 8;
      rng = Rng.make (seed lxor (0x0c11e47 + (977 * Stack.addr stack)));
      map = Rcu.make None;
      hints = Hashtbl.create 8;
      retries = 0;
      redirects = 0;
      failed = 0;
      trips = 0;
      breaker_skips = 0;
      probes = 0;
      deadline_misses = 0;
      inflight = 0;
      inflight_hwm = 0;
      submitted = 0;
      completed = 0;
      pipe_depth = 0;
      put_h = Metrics.histogram ~subsystem:"cluster" "client.put";
      get_h = Metrics.histogram ~subsystem:"cluster" "client.get" }
  in
  (* host-side snapshot hook: replay snapshots show the client's
     retry/backoff posture and pipeline occupancy *)
  Chorus.Inspect.register
    ~name:(Printf.sprintf "cluster/client%d" (Stack.addr t.stack))
    (fun () ->
      let open Chorus.Inspect in
      Assoc
        [ ("attempts", Int t.attempts);
          ("backoff_base", Int backoff_base);
          ("backoff_cap", Int backoff_cap);
          ("retries", Int t.retries);
          ("redirects", Int t.redirects);
          ("failed", Int t.failed);
          ("map_version",
           Int (match Rcu.peek t.map with None -> 0 | Some m -> Shardmap.version m));
          ("map_publishes", Int (Rcu.publishes t.map));
          ("pipeline_depth", Int t.pipe_depth);
          ("inflight", Int t.inflight);
          ("inflight_hwm", Int t.inflight_hwm);
          ("submitted", Int t.submitted);
          ("completed", Int t.completed);
          ("breaker",
           match t.breaker with
           | None -> Null
           | Some { trip_after; cooldown } ->
             Assoc
               [ ("trip_after", Int trip_after);
                 ("cooldown", Int cooldown);
                 ("trips", Int t.trips);
                 ("skips", Int t.breaker_skips);
                 ("probes", Int t.probes);
                 ("open_now",
                  Int
                    (Hashtbl.fold
                       (fun _ b acc ->
                         match b.bst with
                         | `Open_until _ -> acc + 1
                         | `Closed | `Half_open -> acc)
                       t.breakers 0)) ]);
          ("op_budget",
           match t.op_budget with None -> Null | Some b -> Int b);
          ("deadline_misses", Int t.deadline_misses) ]);
  t

(* ------------------------------------------------------------------ *)
(* Breaker machinery: every function is a no-op (and allocates
   nothing) when the client was created without ~breaker, so the
   default client is unchanged.                                       *)

let bk t node =
  match Hashtbl.find_opt t.breakers node with
  | Some b -> b
  | None ->
    let b = { bst = `Closed; fails = 0 } in
    Hashtbl.replace t.breakers node b;
    b

(* Is the node's breaker open right now?  An expired cooldown
   transitions open -> half-open here (lazily, on the virtual clock):
   the caller asking is the probe. *)
let breaker_blocks t node =
  match t.breaker with
  | None -> false
  | Some _ -> (
    let b = bk t node in
    match b.bst with
    | `Closed | `Half_open -> false
    | `Open_until until ->
      if Fiber.now () >= until then begin
        b.bst <- `Half_open;
        t.probes <- t.probes + 1;
        false
      end
      else true)

let record_failure t node =
  match t.breaker with
  | None -> ()
  | Some cfg -> (
    let b = bk t node in
    b.fails <- b.fails + 1;
    match b.bst with
    | `Half_open ->
      (* the probe failed: straight back to open *)
      t.trips <- t.trips + 1;
      b.bst <- `Open_until (Fiber.now () + cfg.cooldown)
    | `Closed when b.fails >= cfg.trip_after ->
      t.trips <- t.trips + 1;
      b.bst <- `Open_until (Fiber.now () + cfg.cooldown)
    | `Closed | `Open_until _ -> ())

let record_success t node =
  match t.breaker with
  | None -> ()
  | Some _ -> (
    match Hashtbl.find_opt t.breakers node with
    | None -> ()
    | Some b ->
      b.bst <- `Closed;
      b.fails <- 0)

let breaker_state t node : breaker_state =
  match Hashtbl.find_opt t.breakers node with
  | None -> `Closed
  | Some b -> (
    match b.bst with
    | `Closed -> `Closed
    | `Half_open -> `Half_open
    | `Open_until until -> if Fiber.now () >= until then `Half_open else `Open)

let retries t = t.retries

let redirects t = t.redirects

let ops_failed t = t.failed

let map_publishes t = Rcu.publishes t.map

let breaker_trips t = t.trips

let breaker_skips t = t.breaker_skips

let breaker_probes t = t.probes

let deadline_misses t = t.deadline_misses

(* Bounded exponential backoff with +-25% jitter.  Same shape as the
   stack's retransmission backoff but at operation granularity: a
   whole election has to pass before a crashed leader's shard answers
   again, so waits stretch toward the cap instead of hammering. *)
let backoff t n =
  let w = min backoff_cap (backoff_base * (1 lsl min n 3)) in
  let j = w / 4 in
  Fiber.sleep ((w - j) + Rng.int t.rng ((2 * j) + 1))

let fetch_map t =
  let rec try_nodes = function
    | [] -> None
    | node :: rest -> (
      match
        Stack.call t.stack ~dst:node ~port:Cluster.client_port
          ~timeout:t.call_timeout ~attempts:2 "M"
      with
      | Some reply
        when String.length reply > 1 && reply.[0] = 'm' -> (
        match Shardmap.decode (String.sub reply 1 (String.length reply - 1)) with
        | Some m -> Some m
        | None -> try_nodes rest)
      | Some _ | None -> try_nodes rest)
  in
  try_nodes t.bootstrap

let rec ensure_map t n =
  match Rcu.read t.map with
  | Some m -> Some m
  | None -> (
    match fetch_map t with
    | Some m ->
      Rcu.publish t.map (Some m);
      Some m
    | None ->
      if n + 1 >= t.attempts then None
      else begin
        t.retries <- t.retries + 1;
        backoff t n;
        ensure_map t (n + 1)
      end)

let encode_put k v =
  let b = Buffer.create (String.length k + String.length v + 8) in
  Buffer.add_char b 'P';
  Wire.enc_str b k;
  Wire.enc_str b v;
  Buffer.contents b

let encode_get k =
  let b = Buffer.create (String.length k + 4) in
  Buffer.add_char b 'G';
  Wire.enc_str b k;
  Buffer.contents b

(* One routed operation: pick the hinted leader (else the preferred
   replica), follow redirects immediately, rotate + back off on
   timeout/retry.  [n] counts attempts that consumed backoff budget;
   redirects are free but bounded by [t.attempts] total hops via
   [hops].

   With a breaker installed, routing steers around open nodes: the
   initial pick and every rotation advance past replicas whose breaker
   is open (when {e every} replica is open the current target is kept
   — the call itself is the probe that can ever close a breaker
   again).  With an op budget, the operation carries an absolute
   deadline: checked before every attempt, and each RPC's timeout is
   clamped to the remaining budget, so the op fails fast instead of
   queueing retries behind a gray node. *)
let operation t ~key ~req =
  let dl = match t.op_budget with None -> None | Some b -> Some (Fiber.now () + b) in
  match ensure_map t 0 with
  | None ->
    t.failed <- t.failed + 1;
    `Net_fail
  | Some map ->
    let shard = Shardmap.shard_of_key map key in
    let replicas = Shardmap.replicas map shard in
    let nrep = Array.length replicas in
    let target = ref
        (match Hashtbl.find_opt t.hints shard with
        | Some a -> a
        | None -> replicas.(0))
    and rotation = ref 0 in
    let rotate () =
      Hashtbl.remove t.hints shard;
      incr rotation;
      target := replicas.(!rotation mod nrep)
    in
    (* steer off an open breaker: advance the rotation until a
       non-open replica turns up, at most one full cycle *)
    let steer () =
      if breaker_blocks t !target then begin
        let rec scan k =
          if k < nrep then begin
            incr rotation;
            let cand = replicas.(!rotation mod nrep) in
            if breaker_blocks t cand then scan (k + 1)
            else begin
              t.breaker_skips <- t.breaker_skips + 1;
              Hashtbl.remove t.hints shard;
              target := cand
            end
          end
        in
        scan 0
      end
    in
    steer ();
    let rec go n hops =
      if (match dl with Some d -> Fiber.now () >= d | None -> false) then begin
        t.deadline_misses <- t.deadline_misses + 1;
        record_failure t !target;
        t.failed <- t.failed + 1;
        `Net_fail
      end
      else if n >= t.attempts || hops >= 4 * t.attempts then begin
        t.failed <- t.failed + 1;
        `Net_fail
      end
      else begin
        let retry ?(redirect = false) () =
          if redirect then go n (hops + 1)
          else begin
            t.retries <- t.retries + 1;
            backoff t n;
            steer ();
            go (n + 1) (hops + 1)
          end
        in
        let timeout =
          match dl with
          | None -> t.call_timeout
          | Some d -> min t.call_timeout (max 1 (d - Fiber.now ()))
        in
        match
          Stack.call t.stack ~dst:!target ~port:Cluster.client_port
            ~timeout ~attempts:2 req
        with
        | None ->
          (* node silent: likely down, try the next replica *)
          record_failure t !target;
          rotate ();
          retry ()
        | Some reply when String.length reply = 0 ->
          record_failure t !target;
          rotate ();
          retry ()
        | Some reply -> (
          record_success t !target;
          match reply.[0] with
          | 'A' ->
            Hashtbl.replace t.hints shard !target;
            `Acked
          | 'F' ->
            Hashtbl.replace t.hints shard !target;
            `Found (String.sub reply 1 (String.length reply - 1))
          | 'M' ->
            Hashtbl.replace t.hints shard !target;
            `Miss
          | 'L' -> (
            match int_of_string_opt (String.sub reply 1 (String.length reply - 1)) with
            | Some hint when hint >= 0 && hint <> !target ->
              (* free fast-path: the follower told us who leads *)
              t.redirects <- t.redirects + 1;
              Hashtbl.replace t.hints shard hint;
              target := hint;
              retry ~redirect:true ()
            | Some _ | None ->
              (* no leader yet: wait out the election *)
              rotate ();
              retry ())
          | 'R' ->
            (* proposal lost to a leadership change: same target may
               well have recovered, but re-route defensively *)
            rotate ();
            retry ()
          | 'X' ->
            (* wrong node: our map is stale — retract the snapshot and
               publish a freshly fetched one *)
            Rcu.publish t.map None;
            (match ensure_map t 0 with Some _ -> () | None -> ());
            rotate ();
            retry ()
          | _ -> rotate (); retry ())
      end
    in
    go 0 0

let put t k v =
  Span.timed ~subsystem:"cluster" ~name:"client.put" t.put_h @@ fun () ->
  match operation t ~key:k ~req:(encode_put k v) with
  | `Acked -> `Ok
  | `Found _ | `Miss -> `Ok  (* cannot happen for a put *)
  | `Net_fail -> `Net_fail

let get t k =
  Span.timed ~subsystem:"cluster" ~name:"client.get" t.get_h @@ fun () ->
  match operation t ~key:k ~req:(encode_get k) with
  | `Found v -> `Found v
  | `Miss -> `Miss
  | `Acked -> `Miss  (* cannot happen for a get *)
  | `Net_fail -> `Net_fail

(* ------------------------------------------------------------------ *)
(* Pipelining: multiple in-flight operations per client                *)

type op = Op_put of string * string | Op_get of string

type op_result = [ `Ok | `Found of string | `Miss | `Net_fail ]

type completion = { seq : int; at : int; result : op_result }

type pipe = {
  client : t;
  depth : int;
  window : unit Chan.t;  (* semaphore: depth slots *)
  done_c : completion Chan.t;
  mutable next_seq : int;
}

let pipeline ?(depth = 8) t =
  if depth < 1 then invalid_arg "Client.pipeline: depth";
  t.pipe_depth <- depth;
  { client = t;
    depth;
    window = Chan.buffered ~label:"pipe-window" depth;
    done_c = Chan.unbounded ~label:"pipe-done" ();
    next_seq = 0 }

let submit p op =
  let t = p.client in
  Chan.send p.window ();  (* blocks while [depth] ops are in flight *)
  let seq = p.next_seq in
  p.next_seq <- seq + 1;
  t.submitted <- t.submitted + 1;
  t.inflight <- t.inflight + 1;
  if t.inflight > t.inflight_hwm then t.inflight_hwm <- t.inflight;
  ignore
    (Fiber.spawn
       ~label:(Printf.sprintf "pipe-op-%d" seq)
       ~daemon:true
       (fun () ->
         let result : op_result =
           match op with
           | Op_put (k, v) -> (put t k v :> op_result)
           | Op_get k -> (get t k :> op_result)
         in
         t.inflight <- t.inflight - 1;
         t.completed <- t.completed + 1;
         ignore (Chan.recv p.window);  (* free the window slot *)
         Chan.send p.done_c { seq; at = Fiber.now (); result }));
  seq

let completions p = p.done_c

let inflight p = p.client.inflight

let inflight_hwm p = p.client.inflight_hwm
