module Engine = Chorus.Engine
module Deque = Chorus_util.Deque
module Coherence = Chorus_machine.Coherence
module Machine = Chorus_machine.Machine

type waiter = {
  waker : unit Engine.waker;
  enq_time : int;
  core : int;
  fid : int;
}

type t = {
  line : Coherence.line;
  mutable holder : int option;  (** fiber id *)
  mutable free_from : int;
      (** virtual time at which the previous critical section ends.
          Fibers whose segments overlap in virtual time but run
          sequentially on the host serialize on this watermark: the
          later acquirer stalls (is charged) until the lock frees. *)
  waiters : waiter Deque.t;
  lk_label : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
}

let create ?(label = "lock") () =
  { line = Coherence.line ();
    holder = None;
    free_from = 0;
    waiters = Deque.create ();
    lk_label = label;
    acquisitions = 0;
    contended = 0;
    wait_cycles = 0 }

let acquire t =
  let eng = Engine.current () in
  let self = Engine.self eng in
  let me = Engine.fiber_id self in
  let core = Engine.fiber_core self in
  let m = Engine.machine eng in
  (* the ticket fetch is an atomic RMW on the lock line *)
  Engine.charge eng (Coherence.rmw ~now:(Engine.now eng) m t.line core);
  t.acquisitions <- t.acquisitions + 1;
  match t.holder with
  | None ->
    (* free in host order, but possibly still held in virtual time *)
    let now = Engine.now eng in
    if t.free_from > now then begin
      t.contended <- t.contended + 1;
      t.wait_cycles <- t.wait_cycles + (t.free_from - now);
      Engine.charge eng (t.free_from - now)
    end;
    t.holder <- Some me
  | Some _ ->
    t.contended <- t.contended + 1;
    (* a spinning waiter keeps re-reading the line: register as a
       sharer so every hand-off pays invalidation traffic *)
    Engine.charge eng (Coherence.read m t.line core);
    let enq_time = Engine.now eng in
    Engine.suspend eng ~tag:("lock:" ^ t.lk_label) (fun w ->
        Deque.push_back t.waiters
          { waker = w; enq_time; core; fid = me })

(* Hand the lock to the first still-live parked waiter (killed fibers
   are skipped); the new holder observes the release only after the
   lock line travels from the releasing core. *)
let rec hand_off t eng ~from_core =
  match Deque.pop_front t.waiters with
  | None -> t.holder <- None
  | Some w ->
    if Engine.waker_live w.waker then begin
      let m = Engine.machine eng in
      let now = Engine.now eng in
      let delay =
        Machine.transfer_latency m ~owner:from_core ~requester:w.core
      in
      t.holder <- Some w.fid;
      t.wait_cycles <- t.wait_cycles + (now + delay - w.enq_time);
      Engine.wake_at w.waker (now + delay) ()
    end
    else hand_off t eng ~from_core

let release t =
  let eng = Engine.current () in
  let self = Engine.self eng in
  let me = Engine.fiber_id self in
  (match t.holder with
  | Some h when h = me -> ()
  | Some _ | None ->
    invalid_arg ("Lock.release: not the holder of " ^ t.lk_label));
  let core = Engine.fiber_core self in
  Engine.charge eng
    (Coherence.write ~now:(Engine.now eng) (Engine.machine eng) t.line core);
  t.free_from <- max t.free_from (Engine.now eng);
  hand_off t eng ~from_core:core

let with_lock t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f

let acquisitions t = t.acquisitions

let contended t = t.contended

let wait_cycles t = t.wait_cycles
