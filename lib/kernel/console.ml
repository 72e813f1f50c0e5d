module Fiber = Chorus.Fiber
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span
module Svc = Chorus_svc.Svc

type t = {
  ep : (string, unit) Svc.t;
  mutable lines : string list;  (** reversed *)
  mutable count : int;
  write_h : Metrics.histogram;  (** caller-observed write_line latency *)
}

(* a ~1 MB/s console at 2 GHz *)
let cycles_per_char = 2000

let start () =
  let t =
    { ep = Svc.create ~subsystem:"console" ~label:"console" ();
      lines = []; count = 0;
      write_h = Metrics.histogram ~subsystem:"console" "write_line" }
  in
  ignore
    (Svc.start t.ep (fun line ->
         (* the device shifts characters out at line rate *)
         Fiber.sleep (cycles_per_char * (String.length line + 1));
         t.lines <- line :: t.lines;
         t.count <- t.count + 1));
  t

let write_line t line =
  Span.timed ~subsystem:"console" ~name:"write_line" t.write_h @@ fun () ->
  Svc.call ~words:(2 + ((String.length line + 7) / 8)) t.ep line

let output t = List.rev t.lines
