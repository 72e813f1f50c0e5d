module Engine = Chorus.Engine
module Cost = Chorus_machine.Cost

type proc = {
  mutable queue : (unit -> unit) list;  (** pending handlers, FIFO *)
  mutable waiting : unit Engine.waker option;
  mutable wasted : int;
  mutable delivered : int;
}

let create () = { queue = []; waiting = None; wasted = 0; delivered = 0 }

let deliver p ~handler =
  p.queue <- p.queue @ [ handler ];
  match p.waiting with
  | Some w when Engine.waker_live w ->
    p.waiting <- None;
    let eng = Engine.current () in
    Engine.wake_at w (Engine.now eng) ()
  | Some _ | None -> p.waiting <- None

let wasted_cycles p = p.wasted

let delivered p = p.delivered

(* Run one pending handler with the delivery cost (signal frame setup,
   handler entry, sigreturn). *)
let run_one_handler eng p =
  match p.queue with
  | [] -> ()
  | h :: rest ->
    p.queue <- rest;
    p.delivered <- p.delivered + 1;
    Engine.charge eng (Engine.costs eng).Cost.signal_deliver;
    h ()

(* cycles of syscall work between preemption points *)
let quantum = 500

let interruptible_syscall p ~work =
  let eng = Engine.current () in
  Trap.enter ();
  (* attempt the syscall body; restart from zero on interruption *)
  let rec attempt () =
    let rec step done_ =
      if done_ >= work then ()
      else if p.queue <> [] then begin
        (* abandon: the [done_] cycles already charged are wasted *)
        p.wasted <- p.wasted + done_;
        (* unwind back to the boundary, deliver, then restart *)
        Trap.enter ();
        run_one_handler eng p;
        Trap.enter ();
        attempt ()
      end
      else begin
        let chunk = min quantum (work - done_) in
        Engine.charge eng chunk;
        (* a preemption point is where fresh signals become visible;
           yield so simulated deliveries can land between chunks *)
        Engine.yield eng;
        step (done_ + chunk)
      end
    in
    step 0
  in
  attempt ();
  Trap.enter ()

let wait_signal p =
  let eng = Engine.current () in
  if p.queue = [] then
    Engine.suspend eng ~tag:"sigsuspend" (fun w -> p.waiting <- Some w);
  run_one_handler eng p
