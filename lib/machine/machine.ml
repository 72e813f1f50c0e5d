type t = { topology : Topology.t; costs : Cost.t }

let make topology costs = { topology; costs }

let costs t = t.costs

let cores t = Topology.cores t.topology

let hops t a b = Topology.hops t.topology a b

let mesh_sides t = Topology.mesh_sides t.topology

(* A counting sort on the distance from the centre: one pass to count
   each distance, one to deal the cores out in id order. *)
let centre_out t =
  let n = cores t and c = Topology.centre t.topology in
  let dist = Array.init n (hops t c) in
  let start = Array.make (Topology.diameter t.topology + 2) 0 in
  Array.iter (fun d -> start.(d + 1) <- start.(d + 1) + 1) dist;
  for d = 1 to Array.length start - 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let order = Array.make n 0 in
  Array.iteri
    (fun core d ->
      order.(start.(d)) <- core;
      start.(d) <- start.(d) + 1)
    dist;
  order

let message_latency t ~src ~dst ~words =
  let c = t.costs in
  let h = hops t src dst in
  c.Cost.msg_inject + (h * c.Cost.msg_per_hop)
  + (words * c.Cost.msg_per_word)
  + c.Cost.msg_receive

let transfer_latency t ~owner ~requester =
  let c = t.costs in
  if owner = requester then c.Cost.cache_hit
  else c.Cost.cache_miss + (hops t owner requester * c.Cost.coherence_per_hop)

(* Exact w*h = cores factorization with w as close to sqrt as possible,
   so power-of-two sweeps get the expected core counts. *)
let mesh_shape cores =
  let rec widest w = if w >= 1 && cores mod w = 0 then w else widest (w - 1) in
  let w = widest (int_of_float (sqrt (float_of_int cores))) in
  Topology.Mesh (w, cores / w)

let mesh ~cores =
  let shape = if cores = 1 then Topology.Single else mesh_shape cores in
  make (Topology.make shape) Cost.software_messages

let mesh_hw ~cores =
  let shape = if cores = 1 then Topology.Single else mesh_shape cores in
  make (Topology.make shape) Cost.hardware_messages

let describe t =
  Printf.sprintf "%s (%d cores)" (Topology.to_string t.topology) (cores t)

let facts t =
  let c = t.costs in
  [ ("cores", cores t);
    ("diameter", Topology.diameter t.topology);
    ("msg_inject", c.Cost.msg_inject);
    ("msg_per_hop", c.Cost.msg_per_hop);
    ("msg_per_word", c.Cost.msg_per_word);
    ("msg_receive", c.Cost.msg_receive);
    ("cache_miss", c.Cost.cache_miss);
    ("coherence_per_hop", c.Cost.coherence_per_hop) ]
