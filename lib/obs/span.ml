module Engine = Chorus.Engine
module Trace = Chorus.Trace

let with_ ~subsystem span f =
  let eng = Engine.current () in
  if not (Engine.tracing eng) then f ()
  else begin
    Engine.emit eng (Trace.Span_begin { subsystem; span });
    Fun.protect
      ~finally:(fun () ->
        Engine.emit eng (Trace.Span_end { subsystem; span }))
      f
  end

let timed ~subsystem ~name h f =
  let eng = Engine.current () in
  let tr = Engine.tracing eng in
  if not (tr || Metrics.live h) then f ()
  else begin
    if tr then Engine.emit eng (Trace.Span_begin { subsystem; span = name });
    let t0 = Engine.now eng in
    Fun.protect
      ~finally:(fun () ->
        Metrics.record h (Engine.now eng - t0);
        if tr then
          Engine.emit eng (Trace.Span_end { subsystem; span = name }))
      f
  end
