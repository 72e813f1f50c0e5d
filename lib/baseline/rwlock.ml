module Engine = Chorus.Engine
module Deque = Chorus_util.Deque
module Coherence = Chorus_machine.Coherence

type wait_kind = Reader | Writer

type waiter = { waker : unit Engine.waker; kind : wait_kind }

type t = {
  line : Coherence.line;
  mutable active_readers : int;
  mutable writer : bool;
  mutable writer_until : int;
      (** virtual end of the latest writer section (see Lock) *)
  mutable readers_until : int;
      (** virtual end of the latest reader section *)
  waiters : waiter Deque.t;
  rw_label : string;
}

let create ?(label = "rwlock") () =
  { line = Coherence.line ();
    active_readers = 0;
    writer = false;
    writer_until = 0;
    readers_until = 0;
    waiters = Deque.create ();
    rw_label = label }

let charge_rmw t eng =
  let self = Engine.self eng in
  Engine.charge eng
    (Coherence.rmw ~now:(Engine.now eng) (Engine.machine eng) t.line
       (Engine.fiber_core self))

let writer_queued t =
  let any = ref false in
  Deque.iter (fun w -> if w.kind = Writer then any := true) t.waiters;
  !any

let acquire_read t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if (not t.writer) && not (writer_queued t) then begin
    (* stall past any virtually in-progress writer section *)
    let now = Engine.now eng in
    if t.writer_until > now then Engine.charge eng (t.writer_until - now);
    t.active_readers <- t.active_readers + 1
  end
  else
    Engine.suspend eng ~tag:("rdlock:" ^ t.rw_label) (fun w ->
        Deque.push_back t.waiters { waker = w; kind = Reader })

let acquire_write t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if (not t.writer) && t.active_readers = 0 then begin
    let now = Engine.now eng in
    let barrier = max t.writer_until t.readers_until in
    if barrier > now then Engine.charge eng (barrier - now);
    t.writer <- true
  end
  else
    Engine.suspend eng ~tag:("wrlock:" ^ t.rw_label) (fun w ->
        Deque.push_back t.waiters { waker = w; kind = Writer })

(* Wake the next writer, or a batch of leading readers. *)
let rec wake_next t eng =
  match Deque.peek_front t.waiters with
  | None -> ()
  | Some { kind = Writer; _ } ->
    let w = Option.get (Deque.pop_front t.waiters) in
    if Engine.waker_live w.waker then begin
      t.writer <- true;
      Engine.wake_at w.waker (Engine.now eng) ()
    end
    else wake_next t eng
  | Some { kind = Reader; _ } ->
    let rec drain () =
      match Deque.peek_front t.waiters with
      | Some { kind = Reader; _ } ->
        let w = Option.get (Deque.pop_front t.waiters) in
        if Engine.waker_live w.waker then begin
          t.active_readers <- t.active_readers + 1;
          Engine.wake_at w.waker (Engine.now eng) ()
        end;
        drain ()
      | Some { kind = Writer; _ } | None -> ()
    in
    drain ();
    if t.active_readers = 0 then wake_next t eng

let release_read t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if t.active_readers <= 0 then
    invalid_arg ("Rwlock.release_read: no readers on " ^ t.rw_label);
  t.active_readers <- t.active_readers - 1;
  t.readers_until <- max t.readers_until (Engine.now eng);
  if t.active_readers = 0 then wake_next t eng

let release_write t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if not t.writer then
    invalid_arg ("Rwlock.release_write: no writer on " ^ t.rw_label);
  t.writer <- false;
  t.writer_until <- max t.writer_until (Engine.now eng);
  wake_next t eng

let with_read t f =
  acquire_read t;
  Fun.protect ~finally:(fun () -> release_read t) f

let with_write t f =
  acquire_write t;
  Fun.protect ~finally:(fun () -> release_write t) f
