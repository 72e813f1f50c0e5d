type t = {
  version : int;
  nshards : int;
  all_nodes : int list;  (* ascending *)
  groups : int array array;  (* shard -> replica addrs, preferred first *)
}

(* FNV-1a with a murmur3 avalanche finalizer, masked to 62 bits so it
   stays a nonnegative OCaml int.  The finalizer matters: raw FNV on
   short, similar keys ("node:1#7") leaves the high bits nearly
   constant, which collapses the ring into per-node clumps and starves
   whole nodes of shards.  Deterministic across runs and nodes — the
   whole point: every party computes the same map from the same node
   list. *)
let hash64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  let mix h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  Int64.to_int (Int64.logand (mix !h) 0x3FFFFFFFFFFFFFFFL)

let point node vnode = hash64 (Printf.sprintf "node:%d#%d" node vnode)

let shard_point s = hash64 (Printf.sprintf "shard:%d" s)

(* ring points per node *)
let vnodes = 64

let build ~nshards ~replication nodes =
  if nodes = [] then invalid_arg "Shardmap.build: no nodes";
  if nshards <= 0 then invalid_arg "Shardmap.build: nshards";
  if replication <= 0 then invalid_arg "Shardmap.build: replication";
  let all_nodes = List.sort_uniq compare nodes in
  let n = List.length all_nodes in
  let repl = min replication n in
  let ring =
    List.concat_map
      (fun node -> List.init vnodes (fun v -> (point node v, node)))
      all_nodes
    |> List.sort compare
    |> Array.of_list
  in
  let len = Array.length ring in
  (* first ring index at or after h (binary search, wrapping) *)
  let successor h =
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    if !lo = len then 0 else !lo
  in
  let group s =
    let start = successor (shard_point s) in
    let picked = ref [] in
    let i = ref 0 in
    while List.length !picked < repl && !i < len do
      let node = snd ring.((start + !i) mod len) in
      if not (List.mem node !picked) then picked := node :: !picked;
      incr i
    done;
    Array.of_list (List.rev !picked)
  in
  { version = 1; nshards; all_nodes; groups = Array.init nshards group }

let version t = t.version

let nshards t = t.nshards

let nodes t = t.all_nodes

let shard_of_key t key = hash64 key mod t.nshards

let replicas t shard = t.groups.(shard)

(* Pure routing over a snapshot: key -> preferred replica.  No state
   is consulted beyond the immutable map value, so this is safe to
   call against an RCU-published snapshot from any fiber and trivial
   to exercise in tests without a live cluster. *)
type snapshot = t

let lookup_in snap key = snap.groups.(hash64 key mod snap.nshards).(0)

let shards_of_node t node =
  List.filter
    (fun s -> Array.exists (fun a -> a = node) t.groups.(s))
    (List.init t.nshards (fun s -> s))

let encode t =
  let b = Buffer.create 64 in
  Wire.enc_int b t.version;
  Wire.enc_int b t.nshards;
  Wire.enc_int b (List.length t.all_nodes);
  List.iter (Wire.enc_int b) t.all_nodes;
  Array.iter
    (fun g ->
      Wire.enc_int b (Array.length g);
      Array.iter (Wire.enc_int b) g)
    t.groups;
  Buffer.contents b

let decode s =
  match
    let r = Wire.reader s in
    let version = Wire.int_ r in
    let nshards = Wire.int_ r in
    let nnodes = Wire.int_ r in
    let all_nodes = List.init nnodes (fun _ -> Wire.int_ r) in
    let groups =
      Array.init nshards (fun _ ->
          let k = Wire.int_ r in
          Array.init k (fun _ -> Wire.int_ r))
    in
    { version; nshards; all_nodes; groups }
  with
  | t -> Some t
  | exception Wire.Malformed -> None
