module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Rng = Chorus_util.Rng
module Svc = Chorus_svc.Svc

type rel_stats = {
  mutable calls : int;
  mutable retransmissions : int;
  mutable failures : int;
  mutable duplicates_served : int;
  mutable dedup_evictions : int;
}

(* Bounded (peer, seq) duplicate-suppression cache: at most
   [dedup_capacity] entries, FIFO in insertion order, so eviction is
   deterministic.  A re-[set] of a live key updates in place without
   renewing its position; an evicted key that returns is a fresh
   insertion.  The queue mirrors the table exactly: every key appears
   in it once. *)
let dedup_capacity = 4096

module Dedup = struct
  type 'v t = {
    tbl : (int * int, 'v) Hashtbl.t;
    order : (int * int) Queue.t;
    stats : rel_stats;
  }

  let create stats = { tbl = Hashtbl.create 32; order = Queue.create (); stats }

  let find_opt d k = Hashtbl.find_opt d.tbl k

  let set d k v =
    if Hashtbl.mem d.tbl k then Hashtbl.replace d.tbl k v
    else begin
      if Queue.length d.order >= dedup_capacity then begin
        let victim = Queue.pop d.order in
        Hashtbl.remove d.tbl victim;
        d.stats.dedup_evictions <- d.stats.dedup_evictions + 1
      end;
      Queue.push k d.order;
      Hashtbl.replace d.tbl k v
    end
end

type t = {
  fabric : Fabric.t;
  nic : Fabric.nic;
  ports : (int, Fabric.frame Chan.t) Hashtbl.t;
  port_svcs : (int, Fabric.frame Svc.cast) Hashtbl.t;
      (** ports whose listener is a service endpoint; the demux offers
          frames through the endpoint *)
  pending : (int, string Chan.t) Hashtbl.t;
      (** outstanding reliable calls, by seq *)
  reply_demux_on : (int, unit) Hashtbl.t;
      (** reply ports whose demux fiber is running *)
  served : (int, string option Dedup.t) Hashtbl.t;
      (** per-port duplicate-suppression state for {!serve_async}:
          (peer, seq) -> None while in flight, Some reply once sent.
          Lives on the stack, not in the serve fiber, so a restarted
          server keeps exactly-once semantics across the crash. *)
  retry_rng : Rng.t;
      (** jitter for retransmission backoff; seeded from the NIC
          address so streams are deterministic and per-node *)
  stats : rel_stats;
  mutable next_seq : int;
}

let create fabric nic =
  let t =
    { fabric;
      nic;
      ports = Hashtbl.create 8;
      port_svcs = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      reply_demux_on = Hashtbl.create 4;
      served = Hashtbl.create 4;
      retry_rng = Rng.make (0x57ac + (131 * Fabric.addr nic));
      stats =
        { calls = 0; retransmissions = 0; failures = 0;
          duplicates_served = 0; dedup_evictions = 0 };
      next_seq = 1 }
  in
  (* the demux fiber owns the NIC's rx channel *)
  ignore
    (Fiber.spawn
       ~label:(Printf.sprintf "demux-%d" (Fabric.addr nic))
       ~daemon:true
       (fun () ->
         let rec loop () =
           let f = Chan.recv (Fabric.rx nic) in
           (match Hashtbl.find_opt t.port_svcs f.Fabric.port with
           | Some svc -> Svc.cast ~words:4 svc f
           | None -> (
             match Hashtbl.find_opt t.ports f.Fabric.port with
             | Some ch -> Chan.send ~words:4 ch f
             | None -> (* no listener: drop, like a closed port *) ()));
           loop ()
         in
         loop ()));
  t

let addr t = Fabric.addr t.nic

let listen t ~port =
  if Hashtbl.mem t.ports port then
    invalid_arg (Printf.sprintf "Stack.listen: port %d taken" port);
  let ch = Chan.unbounded ~label:(Printf.sprintf "port-%d" port) () in
  Hashtbl.replace t.ports port ch;
  ch

let send t ~dst ~port ?seq payload =
  let seq =
    match seq with
    | Some s -> s
    | None ->
      let s = t.next_seq in
      t.next_seq <- s + 1;
      s
  in
  Fabric.transmit t.nic { Fabric.src = 0; dst; port; seq; payload }

let rel_stats t = t.stats

(* Reply port convention: replies to a request on port p arrive on
   port p + 10000, tagged with the request's seq. *)
let reply_port port = port + 10_000

(* One demux fiber per reply port routes replies to the waiting
   caller's one-shot channel, so concurrent calls never steal each
   other's replies. *)
let ensure_reply_demux t port =
  let rport = reply_port port in
  if not (Hashtbl.mem t.reply_demux_on rport) then begin
    Hashtbl.replace t.reply_demux_on rport ();
    let replies = listen t ~port:rport in
    ignore
      (Fiber.spawn
         ~label:(Printf.sprintf "reply-demux-%d" rport)
         ~daemon:true
         (fun () ->
           let rec loop () =
             let f = Chan.recv replies in
             (match Hashtbl.find_opt t.pending f.Fabric.seq with
             | Some one_shot ->
               Hashtbl.remove t.pending f.Fabric.seq;
               Chan.send one_shot f.Fabric.payload
             | None -> (* duplicate reply to a completed call *) ());
             loop ()
           in
           loop ()))
  end

(* Retransmission waits back off exponentially (2x per retry, bounded
   at 8x the base) with a +-12.5% seed-derived jitter, so callers
   hammering a dead peer de-synchronize instead of retrying in
   lockstep.  The first attempt always waits exactly [timeout]: a run
   that never retransmits is cycle-identical to the fixed-interval
   protocol. *)
let retry_wait t ~base n =
  if n = 0 then base
  else begin
    let w = base * (1 lsl min n 3) in
    let j = w / 8 in
    (w - j) + Rng.int t.retry_rng ((2 * j) + 1)
  end

let call t ~dst ~port ?(timeout = 50_000) ?(attempts = 5) req =
  t.stats.calls <- t.stats.calls + 1;
  ensure_reply_demux t port;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let one_shot = Chan.buffered 1 in
  Hashtbl.replace t.pending seq one_shot;
  let rec attempt n =
    if n >= attempts then begin
      t.stats.failures <- t.stats.failures + 1;
      Hashtbl.remove t.pending seq;
      None
    end
    else begin
      if n > 0 then begin
        t.stats.retransmissions <- t.stats.retransmissions + 1;
        let c = Chorus.Engine.counters (Chorus.Engine.current ()) in
        c.Chorus.Engine.retries <- c.Chorus.Engine.retries + 1
      end;
      send t ~dst ~port ~seq req;
      Chan.choose
        [ Chan.recv_case one_shot (fun payload -> Some payload);
          Chan.after (retry_wait t ~base:timeout n) (fun () -> attempt (n + 1)) ]
    end
  in
  attempt 0

let serve_async t ~port handler =
  (* reuse the port channel when a previous server incarnation already
     registered it: a restarted service resumes the same endpoint *)
  let requests =
    match Hashtbl.find_opt t.ports port with
    | Some ch -> ch
    | None -> listen t ~port
  in
  (* the demux offers this port's frames through the endpoint *)
  let svc =
    Svc.cast_attach ~subsystem:"net"
      ~metric_name:(Printf.sprintf "port%d" port)
      ~label:(Printf.sprintf "port-%d" port)
      requests
  in
  Hashtbl.replace t.port_svcs port svc;
  let seen =
    match Hashtbl.find_opt t.served port with
    | Some d -> d
    | None ->
      let d = Dedup.create t.stats in
      Hashtbl.replace t.served port d;
      d
  in
  Svc.serve_cast svc (fun f ->
      let key = (f.Fabric.src, f.Fabric.seq) in
      match Dedup.find_opt seen key with
      | Some (Some cached) ->
        (* completed earlier: replay the reply *)
        t.stats.duplicates_served <- t.stats.duplicates_served + 1;
        send t ~dst:f.Fabric.src ~port:(reply_port port) ~seq:f.Fabric.seq
          cached
      | Some None ->
        (* still in flight: the eventual reply will answer this
           retransmission too, so just swallow it *)
        t.stats.duplicates_served <- t.stats.duplicates_served + 1
      | None ->
        Dedup.set seen key None;
        let src = f.Fabric.src and seq = f.Fabric.seq in
        let reply r =
          match Dedup.find_opt seen key with
          | Some (Some _) -> ()  (* double reply: keep the first *)
          | Some None | None ->
            Dedup.set seen key (Some r);
            send t ~dst:src ~port:(reply_port port) ~seq r
        in
        handler ~src f.Fabric.payload ~reply)

let serve t ~port handler =
  serve_async t ~port (fun ~src payload ~reply -> reply (handler ~src payload))
