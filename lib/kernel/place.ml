module Engine = Chorus.Engine
module Machine = Chorus_machine.Machine

type t = {
  cores : int;
  groups : int;
  ranked : int array;  (** the cores without a name cache, centre out *)
}

let first_core ~cores ~groups g = ((g * cores) + groups - 1) / groups

let current () =
  let m = Engine.machine (Engine.current ()) in
  let cores = Machine.cores m in
  let groups = if cores > 16 then cores / 16 else 0 in
  let cache = Array.make cores false in
  for g = 0 to groups - 1 do
    cache.(first_core ~cores ~groups g) <- true
  done;
  let ranked =
    Machine.centre_out m |> Array.to_list
    |> List.filter (fun c -> not cache.(c))
    |> Array.of_list
  in
  { cores; groups; ranked }

let groups t = t.groups

let group t core = core * t.groups / t.cores

let cache t g = first_core ~cores:t.cores ~groups:t.groups g

let rank t r = t.ranked.(r mod Array.length t.ranked)

let shard t i = rank t (2 * i)

let vnode t ~shards v = rank t (if v < shards then (2 * v) + 1 else shards + v)
