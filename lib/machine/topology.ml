type shape =
  | Single
  | Crossbar of int
  | Ring of int
  | Mesh of int * int
  | Hierarchy of int * int * int

type t = { shape : shape; cores : int }

type core = int

let cluster_hop = 3
let die_hop = 8

let cores_of_shape = function
  | Single -> 1
  | Crossbar n | Ring n -> n
  | Mesh (w, h) -> w * h
  | Hierarchy (dies, clusters, per_cluster) -> dies * clusters * per_cluster

let make shape =
  let cores = cores_of_shape shape in
  if cores <= 0 then invalid_arg "Topology.make: no cores";
  (match shape with
  | Mesh (w, h) when w <= 0 || h <= 0 -> invalid_arg "Topology.make: bad mesh"
  | _ -> ());
  { shape; cores }

let cores t = t.cores

let check t c =
  if c < 0 || c >= t.cores then
    invalid_arg (Printf.sprintf "Topology: core %d out of range" c)

let hops t a b =
  check t a;
  check t b;
  if a = b then 0
  else
    match t.shape with
    | Single -> 0
    | Crossbar _ -> 1
    | Ring n ->
      let d = abs (a - b) in
      min d (n - d)
    | Mesh (w, _) ->
      let xa = a mod w and ya = a / w in
      let xb = b mod w and yb = b / w in
      abs (xa - xb) + abs (ya - yb)
    | Hierarchy (_, clusters, per_cluster) ->
      let cluster c = c / per_cluster in
      let die c = c / (clusters * per_cluster) in
      if die a <> die b then die_hop
      else if cluster a <> cluster b then cluster_hop
      else 1

let centre t =
  match t.shape with
  | Mesh (w, h) -> ((h - 1) / 2 * w) + ((w - 1) / 2)
  | Single | Crossbar _ | Ring _ | Hierarchy _ -> 0

let mesh_sides t =
  match t.shape with
  | Mesh (w, h) -> Some (w, h)
  | Single | Crossbar _ | Ring _ | Hierarchy _ -> None

let diameter t =
  match t.shape with
  | Single -> 0
  | Crossbar _ -> 1
  | Ring n -> n / 2
  | Mesh (w, h) -> (w - 1) + (h - 1)
  | Hierarchy (dies, clusters, _) ->
    if dies > 1 then die_hop else if clusters > 1 then cluster_hop else 1

let neighbours t c =
  check t c;
  match t.shape with
  | Single -> []
  | Crossbar n -> List.init n (fun i -> i) |> List.filter (fun i -> i <> c)
  | Ring n ->
    if n = 1 then []
    else if n = 2 then [ 1 - c ]
    else [ (c + n - 1) mod n; (c + 1) mod n ]
  | Mesh (w, h) ->
    let x = c mod w and y = c / w in
    let cand = [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ] in
    List.filter_map
      (fun (x, y) ->
        if x >= 0 && x < w && y >= 0 && y < h then Some ((y * w) + x)
        else None)
      cand
  | Hierarchy (_, _, per_cluster) ->
    let base = c / per_cluster * per_cluster in
    List.init per_cluster (fun i -> base + i)
    |> List.filter (fun i -> i <> c)

let to_string t =
  match t.shape with
  | Single -> "single"
  | Crossbar n -> Printf.sprintf "crossbar-%d" n
  | Ring n -> Printf.sprintf "ring-%d" n
  | Mesh (w, h) -> Printf.sprintf "mesh-%dx%d" w h
  | Hierarchy (d, cl, pc) -> Printf.sprintf "hier-%dx%dx%d" d cl pc
