module Rng = Chorus_util.Rng

type view = {
  cores : int;
  load : int -> int;
  hops : int -> int -> int;
  rng : Rng.t;
}

type t = {
  name : string;
  place : view -> parent:int -> affinity:int option -> int;
  steals : bool;
}

let name t = t.name

let place t = t.place

let steals t = t.steals

let parent =
  { name = "parent";
    place = (fun _ ~parent ~affinity:_ -> parent);
    steals = false }

let round_robin () =
  let next = ref 0 in
  let place v ~parent:_ ~affinity:_ =
    let c = !next mod v.cores in
    next := (!next + 1) mod v.cores;
    c
  in
  { name = "round-robin"; place; steals = false }

let random =
  { name = "random";
    place = (fun v ~parent:_ ~affinity:_ -> Rng.int v.rng v.cores);
    steals = false }

let least_loaded_core v among =
  let best = ref (-1) and best_load = ref max_int in
  List.iter
    (fun c ->
      let l = v.load c in
      if l < !best_load then begin
        best := c;
        best_load := l
      end)
    among;
  !best

let least_loaded =
  let place v ~parent:_ ~affinity:_ =
    least_loaded_core v (List.init v.cores (fun i -> i))
  in
  { name = "least-loaded"; place; steals = false }

let locality () =
  (* Stay home while the local queue is shorter than [spill]; when
     spilling, pick the least-loaded core among progressively wider
     rings around the parent. *)
  let spill = 2 in
  let place v ~parent ~affinity:_ =
    if v.load parent < spill then parent
    else begin
      let rec widen radius =
        if radius > v.cores then parent
        else begin
          let ring =
            List.init v.cores (fun c -> c)
            |> List.filter (fun c -> v.hops parent c <= radius)
          in
          let c = least_loaded_core v ring in
          if c >= 0 && v.load c < spill then c
          else if radius >= v.cores then least_loaded_core v (List.init v.cores (fun i -> i))
          else widen (radius * 2)
        end
      in
      widen 1
    end
  in
  { name = "locality"; place; steals = false }

let work_steal () =
  { name = "work-steal";
    place = (fun _ ~parent ~affinity:_ -> parent);
    steals = true }

let affinity_groups () =
  let fallback = round_robin () in
  let place v ~parent ~affinity =
    match affinity with
    | Some key ->
      (* deterministic hash of the group key over the cores *)
      (Hashtbl.hash key * 2654435761) land max_int mod v.cores
    | None -> fallback.place v ~parent ~affinity:None
  in
  { name = "affinity"; place; steals = false }

let all () =
  [ parent; round_robin (); random; least_loaded; locality (); work_steal ();
    affinity_groups () ]
