module Deque = Chorus_util.Deque
module Rng = Chorus_util.Rng
module Machine = Chorus_machine.Machine
module Cost = Chorus_machine.Cost

exception Closed

type capacity = Rendezvous | Bounded of int | Unbounded

(* A waiting party: a blocked send or recv, or one arm of a blocked
   choose.  The arms of one choice share one commit cell: the first
   partner (or timer) to claim any of them wins and the rest go stale.
   A plain send or recv has a cell of its own.  The waiting fiber
   resumes with [resume v], where [v] is the value a receiver takes or
   the unit a sender gets once its value is taken.  A sender's offer
   carries its value and payload size; a receiver's carries [()]. *)
type ('v, 'p) offer =
  | Offer : {
      cell : bool ref;
      waker : 'k Engine.waker;
      resume : 'v -> 'k;
      core : int;
      time : int;
      value : 'p;
      words : int;
    }
      -> ('v, 'p) offer

let offer ?(cell = ref false) ?(words = 0) waker ~resume ~core ~time value =
  Offer { cell; waker; resume; core; time; value; words }

(* Live: not yet claimed, and its fiber still waits (not woken or
   killed).  A successful [claim] must be followed by exactly one
   [wake] or [abort]. *)
let live (Offer o) = (not !(o.cell)) && Engine.waker_live o.waker

let claim (Offer o as x) =
  live x
  && begin
    o.cell := true;
    true
  end

let wake (Offer o) ~time v = Engine.wake_at o.waker time (o.resume v)

let abort (Offer o) ~time e = Engine.wake_err_at o.waker time e

(* Claim the first live offer, discarding stale ones. *)
let rec pop_live q =
  match Deque.pop_front q with
  | None -> None
  | Some o -> if claim o then Some o else pop_live q

(* Non-destructive probe: prune stale offers at the front, report
   whether a live one remains. *)
let rec some_live q =
  match Deque.peek_front q with
  | None -> false
  | Some o ->
    live o
    || begin
      ignore (Deque.pop_front q);
      some_live q
    end

let count_live q =
  let n = ref 0 in
  Deque.iter (fun o -> if live o then incr n) q;
  !n

type 'a slot = { sl_val : 'a; sl_core : int; sl_time : int }

type 'a t = {
  chid : int;
  mutable chlabel : string;  (** [""] until an anonymous channel is named *)
  cap : capacity;
  buf : 'a slot Queue.t;
  txq : (unit, 'a) offer Deque.t;
  rxq : ('a, unit) offer Deque.t;
  mutable closed : bool;
}

let waiting_senders c = count_live c.txq

let waiting_receivers c = count_live c.rxq

(* An anonymous channel builds its name the first time something reads
   it (a blocked wait's tag, which the deadlock report and a snapshot
   show), so a reply channel that is never waited on never builds one. *)
let label c =
  if c.chlabel = "" then c.chlabel <- "chan-" ^ string_of_int c.chid;
  c.chlabel

let make_chan cap label =
  let eng = Engine.current () in
  let chid = Engine.fresh_id eng in
  let c =
    { chid; chlabel = Option.value label ~default:""; cap;
      buf = Queue.create (); txq = Deque.create (); rxq = Deque.create ();
      closed = false }
  in
  (* Only explicitly labelled channels register with the snapshot
     layer: anonymous one-shots (reply channels) would swamp the
     registry without naming anything a debugger can recognise.
     Registration is host-side only — no charge, no trace event. *)
  (match label with
  | None -> ()
  | Some _ ->
    Inspect.register ~name:(Printf.sprintf "chan/%s#%d" c.chlabel c.chid)
      (fun () ->
        Inspect.Assoc
          [ ("queued", Inspect.Int (Queue.length c.buf));
            ("capacity",
             Inspect.Int
               (match c.cap with
               | Rendezvous -> 0
               | Bounded n -> n
               | Unbounded -> -1));
            ("waiting_senders", Inspect.Int (waiting_senders c));
            ("waiting_receivers", Inspect.Int (waiting_receivers c));
            ("closed", Inspect.Bool c.closed) ]));
  c

let rendezvous ?label () = make_chan Rendezvous label

let buffered ?label n =
  if n < 1 then invalid_arg "Chan.buffered: capacity must be >= 1";
  make_chan (Bounded n) label

let unbounded ?label () = make_chan Unbounded label



let is_closed c = c.closed

let length c = Queue.length c.buf

let has_room c =
  match c.cap with
  | Unbounded -> true
  | Bounded n -> Queue.length c.buf < n
  | Rendezvous -> false

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                     *)

let count_message eng c ~src ~dst ~words =
  let cnt = Engine.counters eng in
  cnt.Engine.msgs <- cnt.Engine.msgs + 1;
  cnt.Engine.words_copied <- cnt.Engine.words_copied + words;
  let h = Machine.hops (Engine.machine eng) src dst in
  cnt.Engine.hops <- cnt.Engine.hops + h;
  if h > 0 then cnt.Engine.remote_msgs <- cnt.Engine.remote_msgs + 1;
  if Engine.tracing eng then
    Engine.emit eng (Trace.Send { chan = c.chid; words; src; dst })

(* Cycles from "value leaves the sender core" to "receiver has it":
   transit plus the receive-side fixed cost.  The sender-side
   injection and payload copy are charged separately at send time. *)
let transit eng ~src ~dst =
  let c = Engine.costs eng in
  let h = Machine.hops (Engine.machine eng) src dst in
  (h * c.Cost.msg_per_hop) + c.Cost.msg_receive

let charge_send_side eng ~words =
  let c = Engine.costs eng in
  Engine.charge eng (c.Cost.msg_inject + (words * c.Cost.msg_per_word))

(* ------------------------------------------------------------------ *)
(* Send                                                                *)

(* A send completes without blocking when a live receiver waits or the
   buffer has room. *)
let can_send c = some_live c.rxq || has_room c

(* Complete a send [can_send] allows: hand the value to the first live
   receiver, or else buffer it. *)
let deliver eng c v ~words ~src ~ts =
  match pop_live c.rxq with
  | Some (Offer rx as o) ->
    count_message eng c ~src ~dst:rx.core ~words;
    wake o ~time:(max ts rx.time + transit eng ~src ~dst:rx.core) v
  | None ->
    Queue.push { sl_val = v; sl_core = src; sl_time = ts } c.buf;
    count_message eng c ~src ~dst:src ~words

let send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  charge_send_side eng ~words;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  if can_send c then deliver eng c v ~words ~src ~ts
  else
    Engine.suspend eng ~tag:("send:" ^ label c) (fun w ->
        Deque.push_back c.txq
          (offer w ~resume:Fun.id ~core:src ~time:ts ~words v))

(* Unlike [send], stamps the message before the send-side charge. *)
let try_send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  can_send c
  && begin
    charge_send_side eng ~words;
    deliver eng c v ~words ~src ~ts;
    true
  end

(* ------------------------------------------------------------------ *)
(* Receive                                                             *)

(* A value is available if something is buffered, a live sender waits,
   or the channel is closed (in which case consuming raises). *)
let recv_ready c =
  (not (Queue.is_empty c.buf)) || some_live c.txq || c.closed

(* Complete a receive [recv_ready] allows, raising [Closed] on a
   drained closed channel.  A freed buffer slot takes the first live
   sender's value. *)
let recv_fast eng c =
  let me = Engine.fiber_core (Engine.self eng) in
  let tr = Engine.now eng in
  if not (Queue.is_empty c.buf) then begin
    let sl = Queue.pop c.buf in
    let completion = max tr sl.sl_time + transit eng ~src:sl.sl_core ~dst:me in
    Engine.charge eng (completion - tr);
    (if has_room c then
       match pop_live c.txq with
       | None -> ()
       | Some (Offer tx as o) ->
         Queue.push
           { sl_val = tx.value; sl_core = tx.core; sl_time = completion }
           c.buf;
         wake o ~time:completion ());
    Engine.emit eng (Trace.Recv { chan = c.chid });
    sl.sl_val
  end
  else
    match pop_live c.txq with
    | Some (Offer tx as o) ->
      let completion = max tr tx.time + transit eng ~src:tx.core ~dst:me in
      Engine.charge eng (completion - tr);
      count_message eng c ~src:tx.core ~dst:me ~words:tx.words;
      wake o ~time:completion ();
      Engine.emit eng (Trace.Recv { chan = c.chid });
      tx.value
    | None ->
      if c.closed then raise Closed else failwith "Chan.recv_fast: not ready"

let recv c =
  let eng = Engine.current () in
  if recv_ready c then recv_fast eng c
  else
    let me = Engine.fiber_core (Engine.self eng) in
    let tr = Engine.now eng in
    Engine.suspend eng ~tag:("recv:" ^ label c) (fun w ->
        Deque.push_back c.rxq (offer w ~resume:Fun.id ~core:me ~time:tr ()))

let try_recv c =
  let eng = Engine.current () in
  if recv_ready c then Some (recv_fast eng c) else None

(* ------------------------------------------------------------------ *)
(* Close                                                               *)

let rec abort_all q ~time =
  match pop_live q with
  | None -> ()
  | Some o ->
    abort o ~time Closed;
    abort_all q ~time

let close c =
  if not c.closed then begin
    let time = Engine.now (Engine.current ()) in
    c.closed <- true;
    abort_all c.rxq ~time;
    abort_all c.txq ~time
  end

(* ------------------------------------------------------------------ *)
(* Choice                                                              *)

type 'r case =
  | Case : {
      ready : unit -> bool;
      exec : unit -> 'r;
      register : (unit -> 'r) Engine.waker -> bool ref -> unit;
    }
      -> 'r case
  | Timeout : int * (unit -> 'r) -> 'r case
  | Default : (unit -> 'r) -> 'r case

let waker_core w = Engine.fiber_core (Engine.waker_fiber w)

let recv_case c f =
  Case
    { ready = (fun () -> recv_ready c);
      exec = (fun () -> f (recv c));
      register =
        (fun w cell ->
          let time = Engine.now (Engine.current ()) in
          Deque.push_back c.rxq
            (offer ~cell w ~resume:(fun v () -> f v) ~core:(waker_core w)
               ~time ())) }

let send_case ?(words = 2) c v h =
  Case
    { ready = (fun () -> c.closed || can_send c);
      exec =
        (fun () ->
          send ~words c v;
          h ());
      register =
        (fun w cell ->
          let eng = Engine.current () in
          charge_send_side eng ~words;
          Deque.push_back c.txq
            (offer ~cell w ~resume:(fun () -> h) ~core:(waker_core w)
               ~time:(Engine.now eng) ~words v)) }

let after n h =
  if n < 0 then invalid_arg "Chan.after: negative delay";
  Timeout (n, h)

let default h = Default h

type strategy = Commit | Poll of int

(* Run one ready arm, picked uniformly with one seeded draw, or else
   the default arm; [None] when there is neither.  [expired n] says
   whether an [after n] arm is ready. *)
let run_ready eng cases ~expired =
  let ready =
    List.filter
      (function
        | Case { ready; _ } -> ready ()
        | Timeout (n, _) -> expired n
        | Default _ -> false)
      cases
  in
  match ready with
  | [] -> List.find_map (function Default h -> Some (h ()) | _ -> None) cases
  | _ -> (
    match List.nth ready (Rng.int (Engine.rng eng) (List.length ready)) with
    | Case { exec; _ } -> Some (exec ())
    | Timeout (_, h) -> Some (h ())
    | Default _ -> assert false)

let choose_commit cases =
  let eng = Engine.current () in
  (* scanning k options touches k channel headers *)
  Engine.charge eng (List.length cases * (Engine.costs eng).Cost.cache_hit);
  match run_ready eng cases ~expired:(fun _ -> false) with
  | Some r -> r
  | None ->
    let thunk =
      Engine.suspend eng ~tag:"choose" (fun w ->
          let cell = ref false in
          List.iter
            (function
              | Case { register; _ } -> register w cell
              | Timeout (n, h) ->
                (* the timer is this arm's partner *)
                let time = Engine.now eng in
                let o =
                  offer ~cell w ~resume:(fun () -> h) ~core:(waker_core w)
                    ~time ()
                in
                let fire = time + n in
                Engine.schedule_at eng fire (fun () ->
                    if claim o then wake o ~time:fire ())
              | Default _ -> ())
            cases)
    in
    thunk ()

let choose_poll interval cases =
  let eng = Engine.current () in
  let start = Engine.now eng in
  (* timeout arms become absolute deadlines checked on every poll *)
  let rec poll () =
    Engine.charge eng (List.length cases * (Engine.costs eng).Cost.cache_miss);
    let now = Engine.now eng in
    match run_ready eng cases ~expired:(fun n -> now - start >= n) with
    | Some r -> r
    | None ->
      Engine.sleep eng interval;
      poll ()
  in
  poll ()

let choose ?(strategy = Commit) cases =
  if cases = [] then invalid_arg "Chan.choose: no cases";
  let ndefaults =
    List.length (List.filter (function Default _ -> true | _ -> false) cases)
  in
  if ndefaults > 1 then invalid_arg "Chan.choose: multiple defaults";
  match strategy with
  | Commit -> choose_commit cases
  | Poll interval ->
    if interval <= 0 then invalid_arg "Chan.choose: poll interval";
    choose_poll interval cases
