module Cost = Chorus_machine.Cost

type t = Engine.fiber

type exit_status = Engine.exit_status = Normal | Crashed of exn | Killed

type priority = Engine.priority = High | Normal

let spawn ?on ?affinity ?label ?priority ?daemon body =
  Engine.spawn (Engine.current ()) ?on ?affinity ?label ?priority ?daemon body

let self () = Engine.self (Engine.current ())

let id = Engine.fiber_id


let core = Engine.fiber_core

let yield () = Engine.yield (Engine.current ())

let sleep n = Engine.sleep (Engine.current ()) n

let work n = Engine.charge (Engine.current ()) n

let join f =
  let eng = Engine.current () in
  match Engine.status f with
  | Some st -> st
  | None ->
    Engine.suspend eng ~tag:("join:" ^ Engine.fiber_label f) (fun w ->
        Engine.monitor eng f (fun ~time st -> Engine.wake_at w time st))

let kill f = Engine.kill (Engine.current ()) f

let monitor f cb = Engine.monitor (Engine.current ()) f cb

let alive = Engine.alive

let now () = Engine.now (Engine.current ())

let call f =
  let eng = Engine.current () in
  Engine.charge eng (Engine.costs eng).Cost.call;
  f ()
