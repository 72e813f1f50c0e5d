module Engine = Chorus.Engine
module Machine = Chorus_machine.Machine

type t = {
  group_of : int array;  (** each core's group *)
  caches : int array;  (** each group's name-cache core *)
  ranked : int array;  (** the cores without a name cache, centre out *)
}

(* Group g is the g-th of [groups] runs of consecutive core ids, its
   cache on the run's first core. *)
let runs ~cores ~groups =
  ( Array.init cores (fun c -> c * groups / cores),
    Array.init groups (fun g -> ((g * cores) + groups - 1) / groups) )

(* Group g is the g-th 4x4 tile of a w-wide mesh in row-major order, its
   cache on the tile's middle core farthest from [centre], the lowest
   id on a tie (DESIGN D23). *)
let tiles m ~w ~cores ~centre =
  let across = w / 4 in
  let far a b =
    if Machine.hops m centre b > Machine.hops m centre a then b else a
  in
  ( Array.init cores (fun c -> (c / w / 4 * across) + (c mod w / 4)),
    Array.init (cores / 16) (fun g ->
        let mid = (((4 * (g / across)) + 1) * w) + (4 * (g mod across)) + 1 in
        List.fold_left far mid [ mid + 1; mid + w; mid + w + 1 ]) )

let current () =
  let m = Engine.machine (Engine.current ()) in
  let cores = Machine.cores m in
  let order = Machine.centre_out m in
  let group_of, caches =
    match Machine.mesh_sides m with
    | Some (w, h) when cores > 16 && w mod 4 = 0 && h mod 4 = 0 ->
      tiles m ~w ~cores ~centre:order.(0)
    | Some _ | None ->
      runs ~cores ~groups:(if cores > 16 then cores / 16 else 0)
  in
  let cache = Array.make cores false in
  Array.iter (fun c -> cache.(c) <- true) caches;
  let ranked =
    Array.to_list order |> List.filter (fun c -> not cache.(c)) |> Array.of_list
  in
  { group_of; caches; ranked }

let groups t = Array.length t.caches

let group t core = t.group_of.(core)

let cache t g = t.caches.(g)

let rank t r = t.ranked.(r mod Array.length t.ranked)

let shard t i = rank t (2 * i)

let vnode t ~shards v = rank t (if v < shards then (2 * v) + 1 else shards + v)
