(* The unified service plane.  See svc.mli for the story; the
   implementation notes below are about determinism.

   The default configuration (capacity 0 = unbounded, `Block) must be
   charge-for-charge identical to the bare channel pair, an unbounded
   inbox plus a one-shot reply per request (test/svc pins this): offer
   is a plain Chan.send, the serve loop's dequeue is a plain Chan.recv,
   call builds the same one-shot [Chan.buffered 1] reply before
   sending, and nothing here ever uses Chan.choose (choose charges per
   case and draws from the run's RNG, which would perturb every seeded
   experiment).
   Metrics and spans are host-side: they never advance virtual time
   and are no-ops without an installed registry/sink.

   A `Reject or `Shed_oldest inbox is a [Chan.buffered capacity], and
   admission is [Chan.try_send] itself: a message is admitted exactly
   when a live receiver waits or the buffer has room.  Like every
   try_send, an admitted message is stamped before the send-side
   charge, where a `Block send is stamped after it. *)

module Chan = Chorus.Chan
module Fiber = Chorus.Fiber
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span

type policy = [ `Block | `Reject | `Shed_oldest ]

type config = { capacity : int; policy : policy }

let default_config = { capacity = 0; policy = `Block }

let config ?(capacity = 0) ?(policy = `Block) () = { capacity; policy }

exception Busy

(* The ambient crash-point hook: consulted at every serve/serve_cast
   dequeue boundary.  A Ctx slot, so a chaos worker arming a crash
   point from inside its run binds it in that run's context only —
   campaigns on other domains never observe it.  One small slot lookup
   when unarmed, so the plane stays near-free outside chaos
   campaigns. *)
let crashpoint : (string -> unit) Chorus.Ctx.slot =
  Chorus.Ctx.slot "svc.crashpoint"

let set_crashpoint = function
  | Some f -> Chorus.Ctx.set crashpoint f
  | None -> Chorus.Ctx.clear crashpoint

let hit_crashpoint name =
  match Chorus.Ctx.get crashpoint with None -> () | Some f -> f name

type 'msg cast = {
  inbox : 'msg Chan.t;
  cfg : config;
  clabel : string;
  cp_name : string;
  on_shed : 'msg -> unit;
  depth_g : Metrics.gauge;
  hwm_g : Metrics.gauge;
  service_h : Metrics.histogram;
  rejected_c : Metrics.counter;
  shed_c : Metrics.counter;
  span_sub : string;
  span_name : string;
  mutable hwm : int;
  mutable nrejected : int;
  mutable nshed : int;
  mutable nserved : int;
}

type 'resp reply = [ `Ok of 'resp | `Busy ] Chan.t

type ('req, 'resp) t = ('req * 'resp reply) cast

let validate cfg =
  if cfg.capacity < 0 then invalid_arg "Svc: negative capacity";
  match cfg.policy with
  | `Reject | `Shed_oldest when cfg.capacity = 0 ->
      invalid_arg "Svc: `Reject/`Shed_oldest need a capacity >= 1"
  | _ -> ()

let mk_chan cfg ~label =
  if cfg.capacity = 0 then Chan.unbounded ~label ()
  else Chan.buffered ~label cfg.capacity

let wrap ~cfg ~subsystem ~metric_name ~label ~on_shed inbox =
  let mn = match metric_name with None -> "" | Some n -> n ^ "." in
  let ep = {
    inbox;
    cfg;
    clabel = label;
    cp_name = subsystem ^ "." ^ label;
    on_shed;
    depth_g = Metrics.gauge ~subsystem (mn ^ "queue_depth");
    hwm_g = Metrics.gauge ~subsystem (mn ^ "queue_hwm");
    service_h = Metrics.histogram ~subsystem (mn ^ "service_time");
    rejected_c = Metrics.counter ~subsystem (mn ^ "rejected");
    shed_c = Metrics.counter ~subsystem (mn ^ "shed");
    span_sub = subsystem;
    span_name = (match metric_name with None -> "serve" | Some n -> n);
    hwm = 0;
    nrejected = 0;
    nshed = 0;
    nserved = 0;
  }
  in
  (* Snapshot hook: every endpoint reports its inbox state to the
     replay debugger.  Identity survives crash/restart cycles because
     a restarted serve fiber re-attaches to the same endpoint. *)
  Chorus.Inspect.register
    ~name:
      (Printf.sprintf "svc/%s.%s%s" subsystem label
         (match metric_name with None -> "" | Some n -> "." ^ n))
    (fun () ->
      Chorus.Inspect.Assoc
        [ ("depth", Chorus.Inspect.Int (Chan.length ep.inbox));
          ("hwm", Chorus.Inspect.Int ep.hwm);
          ("served", Chorus.Inspect.Int ep.nserved);
          ("rejected", Chorus.Inspect.Int ep.nrejected);
          ("shed", Chorus.Inspect.Int ep.nshed);
          ("capacity", Chorus.Inspect.Int ep.cfg.capacity);
          ("policy",
           Chorus.Inspect.String
             (match ep.cfg.policy with
             | `Block -> "block"
             | `Reject -> "reject"
             | `Shed_oldest -> "shed-oldest")) ]);
  ep

let cast_create ?(config = default_config) ?metric_name
    ?(on_shed = fun _ -> ()) ~subsystem ~label () =
  validate config;
  wrap ~cfg:config ~subsystem ~metric_name ~label ~on_shed
    (mk_chan config ~label)

let cast_attach ?metric_name ~subsystem ~label ch =
  wrap ~cfg:default_config ~subsystem ~metric_name ~label ~on_shed:ignore ch

let create ?config ?metric_name ~subsystem ~label () =
  cast_create ?config ?metric_name
    ~on_shed:(fun (_req, r) -> ignore (Chan.try_send r `Busy))
    ~subsystem ~label ()

let sample t =
  let d = Chan.length t.inbox in
  if d > t.hwm then begin
    t.hwm <- d;
    Metrics.observe t.hwm_g d
  end;
  Metrics.observe t.depth_g d

(* [validate] leaves `Block the only policy of an unbounded inbox. *)
let offer ?words t msg =
  let admitted =
    match t.cfg.policy with
    | `Block ->
        Chan.send ?words t.inbox msg;
        true
    | `Reject -> Chan.try_send ?words t.inbox msg
    | `Shed_oldest ->
        Chan.try_send ?words t.inbox msg
        || begin
             Option.iter
               (fun stale ->
                 t.nshed <- t.nshed + 1;
                 Metrics.incr t.shed_c;
                 t.on_shed stale)
               (Chan.try_recv t.inbox);
             Chan.try_send ?words t.inbox msg
           end
  in
  if admitted then begin
    sample t;
    `Ok
  end
  else begin
    t.nrejected <- t.nrejected + 1;
    Metrics.incr t.rejected_c;
    `Busy
  end

let cast ?words t msg = ignore (offer ?words t msg)

let reply_chan () = Chan.buffered 1

let answer ?words r v = Chan.send ?words r (`Ok v)

let await_result r = Chan.recv r

let await r = match Chan.recv r with `Ok v -> v | `Busy -> raise Busy

let call_result ?words t req =
  let r = reply_chan () in
  match offer ?words t (req, r) with `Ok -> Chan.recv r | `Busy -> `Busy

let call ?words t req =
  match call_result ?words t req with `Ok v -> v | `Busy -> raise Busy

let call_async ?words t req =
  let r = reply_chan () in
  (match offer ?words t (req, r) with
  | `Ok -> ()
  | `Busy -> ignore (Chan.try_send r `Busy));
  r

let recv_case t f = Chan.recv_case t.inbox f

(* The one serve loop: dequeue, crash point, then [handle] under the
   span and the service-time histogram.  Returns once [handle] answers
   [true]. *)
let rec serve_loop t handle =
  let msg = Chan.recv t.inbox in
  sample t;
  hit_crashpoint t.cp_name;
  let stop =
    Span.timed ~subsystem:t.span_sub ~name:t.span_name t.service_h (fun () ->
        handle msg)
  in
  t.nserved <- t.nserved + 1;
  if not stop then serve_loop t handle

let serve ?(words_of_resp = fun _ -> 2) t handler =
  (* the reply send is part of the serviced work: its send-side charge
     is time the server spends on this request, so it belongs inside
     the service_time window *)
  serve_loop t (fun (req, r) ->
      let resp = handler req in
      Chan.send ~words:(words_of_resp resp) r (`Ok resp);
      false)

let serve_forwarding ?(until = fun _ -> false) t handler =
  serve_loop t (fun (req, r) ->
      handler req r;
      until req);
  (* close the inbox, then the reply channel of each request still
     queued in it: its caller raises [Chan.Closed], as a call made
     after the close does *)
  Chan.close t.inbox;
  while Chan.length t.inbox > 0 do
    let _, r = Chan.recv t.inbox in
    Chan.close r
  done

let serve_cast t handler =
  serve_loop t (fun msg ->
      handler msg;
      false)

let start ?on ?priority ?words_of_resp t handler =
  Fiber.spawn ?on ?priority ~label:t.clabel ~daemon:true (fun () ->
      serve ?words_of_resp t handler)

let start_cast ?on ?priority t handler =
  Fiber.spawn ?on ?priority ~label:t.clabel ~daemon:true (fun () ->
      serve_cast t handler)

let starter ?on ?priority ?words_of_resp t handler () =
  start ?on ?priority ?words_of_resp t handler

let depth t = Chan.length t.inbox

let hwm t = t.hwm

let served t = t.nserved

let rejected t = t.nrejected

let shed t = t.nshed
