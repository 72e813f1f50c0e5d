module Engine = Chorus.Engine
module Coherence = Chorus_machine.Coherence

type 'a t = { line : Coherence.line; mutable value : 'a }

let create v = { line = Coherence.line (); value = v }

let my_core eng = Engine.fiber_core (Engine.self eng)

let read t =
  let eng = Engine.current () in
  Engine.charge eng (Coherence.read (Engine.machine eng) t.line (my_core eng));
  t.value

let write t v =
  let eng = Engine.current () in
  Engine.charge eng
    (Coherence.write ~now:(Engine.now eng) (Engine.machine eng) t.line
       (my_core eng));
  t.value <- v

let update t f =
  let eng = Engine.current () in
  Engine.charge eng
    (Coherence.rmw ~now:(Engine.now eng) (Engine.machine eng) t.line
       (my_core eng));
  let old = t.value in
  t.value <- f old;
  old

let peek t = t.value
