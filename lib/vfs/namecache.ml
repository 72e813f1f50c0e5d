type state = Cached | Active | Inactive | Dying

type 'v entry = {
  mutable value : 'v option;  (* None = negative entry *)
  mutable st : state;
  mutable refs : int;
  mutable tick : int;  (* last-touched stamp, insertion order breaks ties *)
}

type 'v t = {
  cap : int;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable negative_hits : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~cap () =
  if cap < 1 then invalid_arg "Namecache.create: cap must be >= 1";
  { cap; tbl = Hashtbl.create (min cap 64); clock = 0; hits = 0;
    misses = 0; negative_hits = 0; evictions = 0; invalidations = 0 }

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let evictable e = (e.st = Cached || e.st = Inactive) && e.refs = 0

(* deterministic LRU: the evictable entry with the smallest tick;
   capacity is small (hundreds to a few thousand) so the scan is
   cheaper than maintaining an intrusive list would be to get right *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun name e acc ->
        if not (evictable e) then acc
        else
          match acc with
          | Some (_, best) when best.tick <= e.tick -> acc
          | _ -> Some (name, e))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (name, _) ->
    Hashtbl.remove t.tbl name;
    t.evictions <- t.evictions + 1

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e when e.st <> Dying -> (
    touch t e;
    match e.value with
    | Some v ->
      t.hits <- t.hits + 1;
      `Hit v
    | None ->
      t.negative_hits <- t.negative_hits + 1;
      `Negative)
  | Some _ | None ->
    t.misses <- t.misses + 1;
    `Miss

let count_evictable t =
  Hashtbl.fold (fun _ e n -> if evictable e then n + 1 else n) t.tbl 0

let insert_gen t name value =
  (match Hashtbl.find_opt t.tbl name with
  | Some e when e.st <> Dying ->
    e.value <- value;
    touch t e
  | Some old ->
    (* rebinding over a dying entry supersedes it; its holders' refs
       carry over, because their later releases find the fresh binding
       by name and must not unpin it under its new holders *)
    let st = if old.refs > 0 then Active else Cached in
    let e = { value; st; refs = old.refs; tick = 0 } in
    touch t e;
    Hashtbl.replace t.tbl name e
  | None ->
    let e = { value; st = Cached; refs = 0; tick = 0 } in
    touch t e;
    Hashtbl.replace t.tbl name e);
  while count_evictable t > t.cap do
    evict_one t
  done

let insert t name v = insert_gen t name (Some v)

let insert_negative t name = insert_gen t name None

let acquire t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e when e.st <> Dying && e.value <> None ->
    e.refs <- e.refs + 1;
    e.st <- Active;
    touch t e
  | Some _ | None -> ()

let release t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e when e.refs > 0 ->
    e.refs <- e.refs - 1;
    if e.refs = 0 then begin
      match e.st with
      | Dying -> Hashtbl.remove t.tbl name
      | Active -> e.st <- Inactive
      | Cached | Inactive -> ()
    end
  | Some _ | None -> ()

let invalidate t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> ()
  | Some e ->
    t.invalidations <- t.invalidations + 1;
    if e.refs > 0 then e.st <- Dying else Hashtbl.remove t.tbl name

let state_of t name =
  Option.map (fun e -> e.st) (Hashtbl.find_opt t.tbl name)

let length t = Hashtbl.length t.tbl

let state_counts t =
  let c = [| 0; 0; 0; 0 |] in
  Hashtbl.iter
    (fun _ e ->
      let i =
        match e.st with Cached -> 0 | Active -> 1 | Inactive -> 2 | Dying -> 3
      in
      c.(i) <- c.(i) + 1)
    t.tbl;
  [ (Cached, c.(0)); (Active, c.(1)); (Inactive, c.(2)); (Dying, c.(3)) ]

let state_name = function
  | Cached -> "cached"
  | Active -> "active"
  | Inactive -> "inactive"
  | Dying -> "dying"

let hits t = t.hits

let misses t = t.misses

let negative_hits t = t.negative_hits

let evictions t = t.evictions

let invalidations t = t.invalidations
