type config = Engine.config = {
  machine : Chorus_machine.Machine.t;
  policy : Chorus_sched.Policy.t;
  seed : int;
  trace : Trace.sink option;
}

let config ?(policy = Chorus_sched.Policy.parent) ?(seed = 42) ?trace machine =
  { machine; policy; seed; trace }

(* Ambient instrumentation: when set, every [run] whose config carries
   no explicit sink asks the factory for one.  The factory is invoked
   once per run, so a profiler gets a fresh (ring) buffer per simulated
   run and can tell runs apart.  This is how `chorus_sim profile`
   observes experiments that build their own configs internally.  A Ctx
   slot rather than a global: installed ambiently on the profiling
   domain, invisible to every other domain. *)
let default_trace : (unit -> Trace.sink) Ctx.slot =
  Ctx.slot "runtime.default_trace"

let set_default_trace = function
  | Some f -> Ctx.set default_trace f
  | None -> Ctx.clear default_trace

let engine_config c =
  match (c.trace, Ctx.get default_trace) with
  | None, Some factory -> { c with trace = Some (factory ()) }
  | _ -> c

let run cfg main =
  let eng = Engine.create (engine_config cfg) in
  Engine.run eng main;
  Runstats.of_engine eng

let run_result cfg main =
  let result = ref None in
  let stats = run cfg (fun () -> result := Some (main ())) in
  match !result with
  | Some v -> (v, stats)
  | None -> assert false
