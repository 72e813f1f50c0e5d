module Engine = Chorus.Engine
module Trace = Chorus.Trace
module Inspect = Chorus.Inspect
module Metrics = Chorus_obs.Metrics
module Chaos = Chorus_chaos.Chaos
module Schedule = Chorus_chaos.Schedule

type run = {
  scenario : Chaos.scenario;
  schedule : Schedule.t;
  at : int;
  snapshot : Inspect.value;
  trace : Trace.record list;
}

let run_to scenario sch ~at =
  let sink, records = Trace.collector () in
  let p = Chaos.prepare scenario sch in
  let eng = Engine.create { p.Chaos.pconfig with trace = Some sink } in
  let reg = Metrics.create () in
  Metrics.install reg;
  Fun.protect
    ~finally:(fun () ->
      Engine.stop eng;
      Metrics.uninstall ())
    (fun () ->
      Engine.start eng p.Chaos.pmain;
      Engine.run_until eng at;
      let snapshot = Snapshot.capture ~at eng in
      { scenario; schedule = sch; at; snapshot; trace = records () })

type divergence = {
  index : int;
  left : Trace.record option;
  right : Trace.record option;
}

let first_divergence a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
      if x = y then go (i + 1) a' b'
      else Some { index = i; left = Some x; right = Some y }
    | x :: _, [] -> Some { index = i; left = Some x; right = None }
    | [], y :: _ -> Some { index = i; left = None; right = Some y }
  in
  go 0 a b

let pp_record_str = function
  | None -> "(end of trace)"
  | Some r -> Format.asprintf "%a" Trace.pp_record r

type comparison = {
  run_a : run;
  run_b : run;
  divergence : divergence option;
  state_diff : Snapshot.entry list;
}

let compare_runs scenario sa sb ~at =
  let a = run_to scenario sa ~at in
  let b = run_to scenario sb ~at in
  { run_a = a;
    run_b = b;
    divergence = first_divergence a.trace b.trace;
    state_diff = Snapshot.diff a.snapshot b.snapshot }
