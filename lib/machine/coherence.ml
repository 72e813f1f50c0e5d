module Iset = Set.Make (Int)

type line = {
  mutable owner : Topology.core;
  mutable sharers : Iset.t;
  mutable busy_until : int;  (** ownership-transfer queue head *)
}

let line () = { owner = 0; sharers = Iset.empty; busy_until = 0 }

let read m l c =
  if l.owner = c || Iset.mem c l.sharers then
    (Machine.costs m).Cost.cache_hit
  else begin
    let cost = Machine.transfer_latency m ~owner:l.owner ~requester:c in
    l.sharers <- Iset.add c l.sharers;
    cost
  end

let write ?now m l c =
  let costs = Machine.costs m in
  let others = Iset.remove c l.sharers in
  if l.owner = c && Iset.is_empty others then costs.Cost.cache_hit
  else begin
    let fetch =
      if l.owner = c then costs.Cost.cache_hit
      else Machine.transfer_latency m ~owner:l.owner ~requester:c
    in
    (* Invalidations go out in parallel; the requester waits for the
       farthest acknowledgement. *)
    let inval =
      Iset.fold
        (fun s acc ->
          if s = c then acc
          else
            max acc
              (Machine.hops m s c * costs.Cost.coherence_per_hop))
        others 0
    in
    (* exclusive ownership transfers serialize: queue behind whatever
       transfer is already in flight *)
    let queueing =
      match now with
      | None -> 0
      | Some now ->
        let wait = max 0 (l.busy_until - now) in
        l.busy_until <- now + wait + fetch;
        wait
    in
    l.owner <- c;
    l.sharers <- Iset.singleton c;
    queueing + fetch + inval
  end

let rmw ?now m l c = write ?now m l c + (Machine.costs m).Cost.atomic

let owner l = l.owner

let sharers l =
  Iset.cardinal (Iset.add l.owner l.sharers)

let reset l c =
  l.owner <- c;
  l.sharers <- Iset.empty
