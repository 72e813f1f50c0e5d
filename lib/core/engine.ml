module Rng = Chorus_util.Rng
module Pqueue = Chorus_util.Pqueue
module Deque = Chorus_util.Deque
module Machine = Chorus_machine.Machine
module Cost = Chorus_machine.Cost
module Policy = Chorus_sched.Policy

type exit_status = Normal | Crashed of exn | Killed

exception Deadlock of string
exception Killed_exn

type state = Created | Runnable | Running | Blocked | Done

type priority = High | Normal

type fiber = {
  fid : int;
  mutable label : string;
  mutable core : int;
  mutable prio : priority;
  mutable state : state;
  mutable wait_tag : string;
  mutable status : exit_status option;
  mutable monitors : (time:int -> exit_status -> unit) list;
  mutable on_kill : (exn -> unit) option;
  mutable kill_requested : bool;
  daemon : bool;
}

type core_state = {
  cid : int;
  runq : (fiber * (unit -> unit)) Deque.t;
  mutable movable : int;
      (** fibers in [runq] a stealing core may take: the non-daemons *)
  mutable pending : int;
      (** wakes scheduled but not yet enqueued — makes load visible to
          placement policies within the scheduling segment *)
  mutable free_at : int;
  mutable busy : int;
  mutable kicked : bool;
  mutable dispatch : unit -> unit;
      (** this core's dispatch event, allocated once by [create] *)
}

(* A set of core ids, newest first: a doubly linked list threaded
   through two arrays, so push, remove and membership are O(1) and a
   scan visits members only.  [prev.(c)] is [absent] when [c] is not a
   member and -1 at the head. *)
module Coreset = struct
  type t = { mutable head : int; next : int array; prev : int array }

  let absent = -2

  let create n =
    { head = -1; next = Array.make n (-1); prev = Array.make n absent }

  let mem s c = s.prev.(c) <> absent

  let push s c =
    assert (not (mem s c));
    s.next.(c) <- s.head;
    s.prev.(c) <- -1;
    if s.head >= 0 then s.prev.(s.head) <- c;
    s.head <- c

  let remove s c =
    if mem s c then begin
      let p = s.prev.(c) and n = s.next.(c) in
      if p >= 0 then s.next.(p) <- n else s.head <- n;
      if n >= 0 then s.prev.(n) <- p;
      s.prev.(c) <- absent
    end
end

type counters = {
  mutable msgs : int;
  mutable remote_msgs : int;
  mutable words_copied : int;
  mutable hops : int;
  mutable spawns : int;
  mutable steals : int;
  mutable segments : int;
  mutable events : int;
  mutable wakes : int;
  mutable retries : int;
}

type config = {
  machine : Machine.t;
  policy : Policy.t;
  seed : int;
  trace : Trace.sink option;
}

type t = {
  config : config;
  ctx : Ctx.t;  (** per-run slot bindings (inspect registry, metrics, …) *)
  machine : Machine.t;
  policy : Policy.t;
  rng : Rng.t;
  view : Policy.view;  (** what placement sees of [cores] *)
  events : Pqueue.t;
  mutable seq : int;
  cores : core_state array;
  backlog : Coreset.t;  (** cores with a movable fiber queued *)
  parked : Coreset.t;
      (** under a stealing policy, the cores with no dispatch pending,
          most recently parked first; every other core is running or
          kicked *)
  mutable now : int;  (** time of the event being processed *)
  mutable horizon : int;  (** furthest virtual time reached *)
  mutable seg_start : int;
  mutable seg_acc : int;
  mutable seg_fiber : fiber option;
  mutable next_fid : int;
  mutable next_service : int;
      (** under a stealing policy, the core of the next daemon spawned
          without [?on] *)
  mutable next_oid : int;
  mutable live : int;
  mutable live_nondaemon : int;
  mutable main_crash : exn option;
  mutable started : bool;
  mutable fibers : fiber list;  (** registry for deadlock reports *)
  cnt : counters;
}

let machine t = t.machine

let ctx t = t.ctx

let costs t = Machine.costs t.machine

let rng t = t.rng

let counters t = t.cnt

let fresh_id t =
  let id = t.next_oid in
  t.next_oid <- id + 1;
  id

let fiber_id f = f.fid

let fiber_label f = f.label

let fiber_core f = f.core

let alive f = f.state <> Done

(* A daemon that died of an exception: nobody joins a service loop, so
   the deadlock report is where its crash shows. *)
let crashed_daemon f =
  f.daemon && match f.status with Some (Crashed _) -> true | _ -> false

let status f = f.status

let live_fibers t = t.live

let core_busy t = Array.map (fun c -> c.busy) t.cores

let elapsed t = t.horizon

(* ------------------------------------------------------------------ *)
(* Time and cost accounting                                            *)

let tracing t = t.config.trace <> None

let in_fiber t = t.seg_fiber <> None

let now t = if in_fiber t then t.seg_start + t.seg_acc else t.now

let charge t n =
  assert (n >= 0);
  if in_fiber t then t.seg_acc <- t.seg_acc + n
  (* charges outside a fiber (timer callbacks) are dropped: they model
     hardware, not core work *)

let self t =
  match t.seg_fiber with
  | Some f -> f
  | None -> failwith "Engine.self: not inside a fiber"

let emit t ev =
  match t.config.trace with
  | None -> ()
  | Some sink ->
    let fiber, core =
      match t.seg_fiber with
      | Some f -> (f.fid, f.core)
      | None -> (-1, -1)
    in
    sink { Trace.time = now t; core; fiber; event = ev }

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let push_event t time thunk =
  assert (time >= t.now);
  t.seq <- t.seq + 1;
  Pqueue.add t.events ~time ~seq:t.seq thunk

let schedule_at t time thunk =
  let time = max time (now t) in
  push_event t time thunk

(* ------------------------------------------------------------------ *)
(* Core dispatch                                                       *)

let core_load t c =
  let core = t.cores.(c) in
  Deque.length core.runq + core.pending
  + (if core.free_at > t.now then 1 else 0)

(* [movable] and [backlog] follow every push and pop of a run queue *)
let taken t core ((f, _) as entry) =
  if not f.daemon then begin
    core.movable <- core.movable - 1;
    if core.movable = 0 then Coreset.remove t.backlog core.cid
  end;
  entry

let pop_runq t core = Option.map (taken t core) (Deque.pop_front core.runq)

(* The first movable fiber of a backlogged core's queue; the daemons
   queued ahead of it keep their places. *)
let pop_movable t core =
  let rec skip ahead =
    match Deque.pop_front core.runq with
    | Some ((f, _) as entry) when f.daemon -> skip (entry :: ahead)
    | next ->
      List.iter (Deque.push_front core.runq) ahead;
      taken t core (Option.get next)
  in
  skip []

let rec kick t core at =
  if not core.kicked then begin
    core.kicked <- true;
    push_event t (max at core.free_at) core.dispatch
  end

and dispatch t core =
  core.kicked <- false;
  match pop_runq t core with
  | Some (f, thunk) ->
    run_segment t core f thunk ~precharge:0;
    after_segment t core
  | None -> if Policy.steals t.policy then steal t core

(* Under a stealing policy a core that runs dry looks at the backlog
   when it frees up, and parks when there is none: a parked core costs
   no events until a doorbell ([ring]) or its own work wakes it. *)
and after_segment t core =
  if not (Deque.is_empty core.runq) then kick t core core.free_at
  else if Policy.steals t.policy then
    if t.backlog.head >= 0 then kick t core core.free_at
    else Coreset.push t.parked core.cid

(* take a movable fiber from the newest backlogged core that has more
   than one runnable fiber, or park.  A daemon is never taken: the
   services stay where they were placed (see [spawn]). *)
and steal t core =
  let rec victim c =
    if c < 0 || core_load t c > 1 then c else victim t.backlog.next.(c)
  in
  match victim t.backlog.head with
  | -1 -> Coreset.push t.parked core.cid
  | vic ->
    let f, thunk = pop_movable t t.cores.(vic) in
    t.cnt.steals <- t.cnt.steals + 1;
    (match t.config.trace with
    | Some sink ->
      sink
        { Trace.time = t.now; core = core.cid; fiber = f.fid;
          event = Trace.Steal { victim_core = vic; fiber = f.fid } }
    | None -> ());
    f.core <- core.cid;
    (* migration drags the fiber's working set across the chip *)
    let c = costs t in
    let miss =
      c.Cost.cache_miss
      + (Machine.hops t.machine vic core.cid * c.Cost.coherence_per_hop)
    in
    run_segment t core f thunk ~precharge:miss;
    after_segment t core

and run_segment t core f thunk ~precharge =
  let start = max t.now core.free_at in
  t.seg_start <- start;
  t.seg_acc <- (costs t).Cost.fiber_switch + precharge;
  t.seg_fiber <- Some f;
  f.state <- Running;
  t.cnt.segments <- t.cnt.segments + 1;
  thunk ();
  t.seg_fiber <- None;
  let fin = t.seg_start + t.seg_acc in
  core.free_at <- fin;
  core.busy <- core.busy + (fin - start);
  if fin > t.horizon then t.horizon <- fin;
  match t.config.trace with
  | None -> ()
  | Some sink ->
    sink
      { Trace.time = fin; core = core.cid; fiber = f.fid;
        event = Trace.Segment { start; label = f.label } }

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)

let create (config : config) =
  let n = Machine.cores config.machine in
  let rng = Rng.make config.seed in
  let policy_rng = Rng.split rng in
  let ctx = Ctx.create () in
  Inspect.attach ctx (Inspect.create_registry ());
  let cores =
    Array.init n (fun cid ->
        { cid; runq = Deque.create (); movable = 0; pending = 0; free_at = 0;
          busy = 0; kicked = false; dispatch = ignore })
  in
  let rec t =
    { config;
      ctx;
      machine = config.machine;
      policy = config.policy;
      rng;
      view =
        { Policy.cores = n;
          load = (fun c -> core_load t c);
          hops = (fun a b -> Machine.hops config.machine a b);
          rng = policy_rng };
      events = Pqueue.create ();
      seq = 0;
      cores;
      backlog = Coreset.create n;
      parked = Coreset.create n;
      now = 0;
      horizon = 0;
      seg_start = 0;
      seg_acc = 0;
      seg_fiber = None;
      next_fid = 0;
      next_service = 1 mod n;
      next_oid = 0;
      live = 0;
      live_nondaemon = 0;
      main_crash = None;
      started = false;
      fibers = [];
      cnt =
        { msgs = 0; remote_msgs = 0; words_copied = 0; hops = 0; spawns = 0;
          steals = 0; segments = 0; events = 0; wakes = 0; retries = 0 };
    }
  in
  Array.iter (fun core -> core.dispatch <- (fun () -> dispatch t core)) cores;
  (* every core starts parked, core 0 on top: the first doorbells go
     to cores 1, 2, ... *)
  if Policy.steals config.policy then
    for c = n - 1 downto 0 do
      Coreset.push t.parked c
    done;
  t

(* ------------------------------------------------------------------ *)
(* Making fibers runnable                                              *)

(* A movable fiber left waiting behind a busy core rings the doorbell
   of the most recently parked core: one word, one message latency
   away. *)
let ring t src =
  let p = t.parked.head in
  if p >= 0 then begin
    Coreset.remove t.parked p;
    kick t t.cores.(p)
      (t.now + Machine.message_latency t.machine ~src ~dst:p ~words:1)
  end

let enqueue_runnable t f thunk ~at =
  t.cnt.wakes <- t.cnt.wakes + 1;
  f.state <- Runnable;
  (match t.config.trace with
  | None -> ()
  | Some sink ->
    sink
      { Trace.time = at; core = f.core; fiber = f.fid; event = Trace.Wake });
  let core = t.cores.(f.core) in
  core.pending <- core.pending + 1;
  push_event t at (fun () ->
      core.pending <- core.pending - 1;
      if not f.daemon then begin
        if core.movable = 0 then Coreset.push t.backlog core.cid;
        core.movable <- core.movable + 1
      end;
      (match f.prio with
      | High -> Deque.push_front core.runq (f, thunk)
      | Normal -> Deque.push_back core.runq (f, thunk));
      (* own work unparks a core *)
      Coreset.remove t.parked core.cid;
      kick t core t.now;
      if Policy.steals t.policy && core_load t core.cid > 1
         && core.movable > 0
      then ring t core.cid)

(* ------------------------------------------------------------------ *)
(* Fiber lifecycle                                                     *)

let finish t f st =
  f.state <- Done;
  f.status <- Some st;
  f.on_kill <- None;
  t.live <- t.live - 1;
  if not f.daemon then t.live_nondaemon <- t.live_nondaemon - 1;
  let status_str =
    match st with
    | Normal -> "normal"
    | Killed -> "killed"
    | Crashed e -> "crashed: " ^ Printexc.to_string e
  in
  emit t (Trace.Exit { status = status_str });
  if f.fid = 0 then begin
    match st with
    | Crashed e -> t.main_crash <- Some e
    | Normal | Killed -> ()
  end;
  let time = now t in
  let ms = f.monitors in
  f.monitors <- [];
  List.iter (fun cb -> cb ~time st) (List.rev ms)

let monitor t f cb =
  match f.status with
  | Some st -> cb ~time:(now t) st
  | None -> f.monitors <- cb :: f.monitors

type 'a waker = {
  w_fiber : fiber;
  w_used : bool ref;
  w_k : ('a, unit) Effect.Deep.continuation;
}

type _ Effect.t +=
  | Suspend : string * ('a waker -> unit) -> 'a Effect.t

let waker_fiber w = w.w_fiber

let waker_live w = (not !(w.w_used)) && w.w_fiber.state = Blocked

let wake_at_gen t w time v_or_e =
  if not !(w.w_used) then begin
    w.w_used := true;
    let f = w.w_fiber in
    f.on_kill <- None;
    f.wait_tag <- "";
    let thunk =
      match v_or_e with
      | Ok v -> fun () -> Effect.Deep.continue w.w_k v
      | Error e -> fun () -> Effect.Deep.discontinue w.w_k e
    in
    enqueue_runnable t f thunk ~at:(max time t.now)
  end

(* wake_at / wake_err_at need the engine; wakers are only ever used
   within one run.  Each domain keeps a stack of the engines it is
   stepping (a stack, not a slot: [run_until] on engine A can in
   principle be interleaved with stepping engine B from the same
   top-level driver, and timer callbacks always resolve to the engine
   whose event loop invoked them).  Per-domain state means two domains
   can each run their own engine concurrently without sharing
   anything. *)
let stepping_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current () =
  match !(Domain.DLS.get stepping_key) with
  | t :: _ -> t
  | [] -> failwith "Chorus.Engine.current: no run in progress"

let wake_at w time v = wake_at_gen (current ()) w time (Ok v)

let wake_err_at w time e = wake_at_gen (current ()) w time (Error e)

let suspend (type a) t ~tag (register : a waker -> unit) : a =
  ignore t;
  Effect.perform (Suspend (tag, register))

let fiber_body t f body () =
  let open Effect.Deep in
  match_with body ()
    { retc = (fun () -> finish t f Normal);
      exnc =
        (fun e ->
          match e with
          | Killed_exn -> finish t f Killed
          | e -> finish t f (Crashed e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (tag, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                if f.kill_requested then discontinue k Killed_exn
                else begin
                  f.state <- Blocked;
                  f.wait_tag <- tag;
                  emit t (Trace.Block { on = tag });
                  let w = { w_fiber = f; w_used = ref false; w_k = k } in
                  f.on_kill <-
                    Some (fun e -> wake_at_gen t w (now t) (Error e));
                  register w
                end)
          | _ -> None) }

let spawn t ?on ?affinity ?label ?(priority = Normal) ?(daemon = false) body =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  let parent = t.seg_fiber in
  let core =
    match on with
    | Some c ->
      if c < 0 || c >= Array.length t.cores then
        invalid_arg "Engine.spawn: core out of range";
      c
    | None when daemon && Policy.steals t.policy ->
      (* stealing never moves a daemon, so the services are spread over
         the cores here, in turn *)
      let c = t.next_service in
      t.next_service <- (c + 1) mod Array.length t.cores;
      c
    | None ->
      let parent_core =
        match parent with Some p -> p.core | None -> 0
      in
      Policy.place t.policy t.view ~parent:parent_core ~affinity
  in
  let label =
    match label with Some l -> l | None -> Printf.sprintf "fiber-%d" fid
  in
  let f =
    { fid; label; core; prio = priority; state = Created; wait_tag = "";
      status = None; monitors = []; on_kill = None; kill_requested = false;
      daemon }
  in
  t.live <- t.live + 1;
  if not daemon then t.live_nondaemon <- t.live_nondaemon + 1;
  t.cnt.spawns <- t.cnt.spawns + 1;
  t.fibers <- f :: t.fibers;
  (* compact the registry when mostly dead, so long runs stay O(live) *)
  if t.cnt.spawns land 0xFFF = 0 && List.length t.fibers > 4 * t.live then
    t.fibers <- List.filter (fun f -> alive f || crashed_daemon f) t.fibers;
  let c = costs t in
  charge t c.Cost.fiber_spawn;
  let at =
    match parent with
    | Some p when p.core <> core ->
      (* shipping the fork request to a remote core is itself a small
         message *)
      now t + Machine.message_latency t.machine ~src:p.core ~dst:core ~words:4
    | _ -> now t
  in
  emit t (Trace.Spawn { child = fid; on_core = core });
  enqueue_runnable t f (fiber_body t f body) ~at;
  f

let yield t =
  let time = now t in
  suspend t ~tag:"yield" (fun w -> wake_at_gen t w time (Ok ()))

let sleep t n =
  assert (n >= 0);
  let time = now t + n in
  suspend t ~tag:"sleep" (fun w ->
      push_event t time (fun () -> wake_at_gen t w time (Ok ())))

let kill (_ : t) f =
  match f.state with
  | Done -> ()
  | Blocked ->
    f.kill_requested <- true;
    (match f.on_kill with
    | Some abort ->
      f.on_kill <- None;
      abort Killed_exn
    | None -> ())
  | Created | Runnable | Running -> f.kill_requested <- true

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let deadlock_report t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    "no pending events but non-daemon fibers remain blocked:";
  List.iter
    (fun f ->
      if alive f && not f.daemon then
        Buffer.add_string buf
          (Printf.sprintf "\n  fiber %d (%s) on core %d waiting on %s" f.fid
             f.label f.core
             (if f.wait_tag = "" then "<nothing?>" else f.wait_tag)))
    (List.rev t.fibers);
  List.iter
    (fun f ->
      match f.status with
      | Some (Crashed e) when f.daemon ->
        Buffer.add_string buf
          (Printf.sprintf "\n  daemon fiber %d (%s) crashed: %s" f.fid f.label
             (Printexc.to_string e))
      | _ -> ())
    (List.rev t.fibers);
  Buffer.contents buf

let start t main =
  if !(Domain.DLS.get stepping_key) <> [] then
    failwith "Engine.start: nested runs are not supported";
  if t.started then failwith "Engine.start: engine already started";
  t.started <- true;
  (* install-then-run: bindings made on this domain before the run
     (metrics registry, trace factory, crash points) become part of
     the run's own context *)
  Ctx.adopt_ambient t.ctx;
  let (_ : fiber) = spawn t ~on:0 ~label:"main" main in
  ()

let stop t = t.started <- false

(* runaway-loop backstop *)
let max_events = 200_000_000

let step_until t limit =
  let stack = Domain.DLS.get stepping_key in
  stack := t :: !stack;
  let prev_ctx = Ctx.activate (Some t.ctx) in
  Fun.protect
    ~finally:(fun () ->
      (match !stack with
      | u :: rest when u == t -> stack := rest
      | _ -> assert false);
      ignore (Ctx.activate prev_ctx))
  @@ fun () ->
  let rec loop () =
    if not (Pqueue.is_empty t.events) then begin
      let time = Pqueue.min_time t.events in
      if time <= limit then begin
        let thunk = Pqueue.pop t.events in
        t.now <- time;
        if time > t.horizon then t.horizon <- time;
        t.cnt.events <- t.cnt.events + 1;
        if t.cnt.events > max_events then begin
          (* a crashed main plus looping daemons would otherwise hide
             the real error behind the cap failure *)
          match t.main_crash with
          | Some e -> raise e
          | None -> failwith "Engine.run: event cap exceeded (runaway loop?)"
        end;
        thunk ();
        loop ()
      end
    end
  in
  loop ()

let run_until t limit =
  if not t.started then
    failwith "Engine.run_until: engine not started (call Engine.start)";
  step_until t limit

let drained t = Pqueue.is_empty t.events

let finish t =
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      step_until t max_int;
      (match t.main_crash with Some e -> raise e | None -> ());
      if t.live_nondaemon > 0 then raise (Deadlock (deadlock_report t)))

let run t main =
  start t main;
  finish t

(* ------------------------------------------------------------------ *)
(* Introspection snapshot                                              *)

let state_name = function
  | Created -> "created"
  | Runnable -> "runnable"
  | Running -> "running"
  | Blocked -> "blocked"
  | Done -> "done"

let inspect t =
  let open Inspect in
  let fiber_ref f =
    Assoc [ ("fid", Int f.fid); ("label", String f.label) ]
  in
  let core_v c =
    Assoc
      [ ("core", Int c.cid);
        ("free_at", Int c.free_at);
        ("busy", Int c.busy);
        ("pending", Int c.pending);
        ("runq",
         List
           (List.map (fun (f, _) -> fiber_ref f) (Deque.to_list c.runq)))
      ]
  in
  let fiber_v f =
    Assoc
      [ ("fid", Int f.fid);
        ("label", String f.label);
        ("core", Int f.core);
        ("state", String (state_name f.state));
        ("wait", String f.wait_tag);
        ("prio", String (match f.prio with High -> "high" | Normal -> "normal"));
        ("daemon", Bool f.daemon)
      ]
  in
  let live_fibers =
    List.filter alive t.fibers
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  Assoc
    [ ("now", Int t.now);
      ("horizon", Int t.horizon);
      ("seed", Int t.config.seed);
      ("machine", String (Machine.describe t.machine));
      ("machine_facts",
       Assoc (List.map (fun (k, v) -> (k, Int v)) (Machine.facts t.machine)));
      ("events_pending", Int (Pqueue.length t.events));
      ("live_fibers", Int t.live);
      ("live_nondaemon", Int t.live_nondaemon);
      ("counters",
       Assoc
         [ ("msgs", Int t.cnt.msgs);
           ("remote_msgs", Int t.cnt.remote_msgs);
           ("words_copied", Int t.cnt.words_copied);
           ("hops", Int t.cnt.hops);
           ("spawns", Int t.cnt.spawns);
           ("steals", Int t.cnt.steals);
           ("segments", Int t.cnt.segments);
           ("events", Int t.cnt.events);
           ("wakes", Int t.cnt.wakes);
           ("retries", Int t.cnt.retries)
         ]);
      ("cores", List (Array.to_list (Array.map core_v t.cores)));
      ("fibers", List (List.map fiber_v live_fibers))
    ]
