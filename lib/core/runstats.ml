type t = {
  makespan : int;
  busy : int array;
  utilization : float;
  msgs : int;
  remote_msgs : int;
  words_copied : int;
  hops : int;
  spawns : int;
  steals : int;
  segments : int;
  events : int;
  wakes : int;
  retries : int;
}

let of_engine eng =
  let busy = Engine.core_busy eng in
  let makespan = Engine.elapsed eng in
  let utilization =
    if makespan = 0 then 0.0
    else begin
      let total = Array.fold_left ( + ) 0 busy in
      float_of_int total /. (float_of_int makespan *. float_of_int (Array.length busy))
    end
  in
  let c = Engine.counters eng in
  { makespan;
    busy;
    utilization;
    msgs = c.Engine.msgs;
    remote_msgs = c.Engine.remote_msgs;
    words_copied = c.Engine.words_copied;
    hops = c.Engine.hops;
    spawns = c.Engine.spawns;
    steals = c.Engine.steals;
    segments = c.Engine.segments;
    events = c.Engine.events;
    wakes = c.Engine.wakes;
    retries = c.Engine.retries }

let throughput t ~ops =
  if t.makespan = 0 then 0.0
  else float_of_int ops *. 1_000_000.0 /. float_of_int t.makespan

let pp ppf t =
  Format.fprintf ppf
    "makespan=%d util=%.1f%% msgs=%d (%d remote) words=%d spawns=%d steals=%d \
     segments=%d events=%d"
    t.makespan (100.0 *. t.utilization) t.msgs t.remote_msgs t.words_copied
    t.spawns t.steals t.segments t.events
