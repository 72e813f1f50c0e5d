module Fiber = Chorus.Fiber
module Fsspec = Chorus_fsspec.Fsspec
module Metrics = Chorus_obs.Metrics
module Svc = Chorus_svc.Svc

type req =
  | Get of int
  | Get_range of { block : int; off : int; len : int }
  | Put of { block : int; off : int; data : string }
  | Zero of int
  | Flush

type resp = Data of string | Done | Io_fail

type shard_state = {
  bufs : (int, Fsspec.buf) Hashtbl.t;
  capacity : int;
  mutable tick : int;
}

type t = {
  eps : (req, resp) Svc.t array;
  mutable hits : int;
  mutable misses : int;
  mutable read_retries : int;
  miss_c : Metrics.counter;
}

(* Cache refill survives transient device read faults: bounded retries
   with exponential backoff, then give up with [Blockdev.Io_error].
   Only the shard that hit the fault stalls — its siblings keep
   serving. *)
let max_read_attempts = 10

let read_with_retry t dev block =
  let rec go attempt backoff =
    match Blockdev.read_result dev block with
    | Ok data -> data
    | Error `Io_error ->
      if attempt >= max_read_attempts then raise Blockdev.Io_error;
      t.read_retries <- t.read_retries + 1;
      Fiber.sleep backoff;
      go (attempt + 1) (min (backoff * 2) 32_000)
  in
  go 1 2_000

(* reply payload sized by what actually crosses the interconnect: the
   requested bytes for reads, a bare ack otherwise *)
let words_of_resp = function
  | Data s -> 2 + ((String.length s + 7) / 8)
  | Done | Io_fail -> 2

let lookup t st dev block =
  st.tick <- st.tick + 1;
  match Hashtbl.find_opt st.bufs block with
  | Some b ->
    t.hits <- t.hits + 1;
    b.last_use <- st.tick;
    b
  | None ->
    t.misses <- t.misses + 1;
    Metrics.incr t.miss_c;
    Fsspec.evict_lru st.bufs ~capacity:st.capacity
      ~write_back:(Blockdev.write dev);
    let data = read_with_retry t dev block in
    let b = { Fsspec.data; dirty = false; last_use = st.tick } in
    Hashtbl.replace st.bufs block b;
    b

let handle t st dev = function
  | Get block ->
    let b = lookup t st dev block in
    Data (Bytes.to_string b.Fsspec.data)
  | Get_range { block; off; len } ->
    let b = lookup t st dev block in
    let len = max 0 (min len (Bytes.length b.data - off)) in
    Data (Bytes.sub_string b.data off len)
  | Put { block; off; data } ->
    let b = lookup t st dev block in
    Bytes.blit_string data 0 b.data off (String.length data);
    b.dirty <- true;
    Done
  | Zero block ->
    st.tick <- st.tick + 1;
    Fsspec.evict_lru st.bufs ~capacity:st.capacity
      ~write_back:(Blockdev.write dev);
    Hashtbl.replace st.bufs block
      { Fsspec.data = Bytes.make Fsspec.block_size '\000'; dirty = true;
        last_use = st.tick };
    Done
  | Flush ->
    Hashtbl.iter
      (fun blk (b : Fsspec.buf) ->
        if b.dirty then begin
          Blockdev.write dev blk b.data;
          b.dirty <- false
        end)
      st.bufs;
    Done

let start ?(shards = 8) ?(capacity = 1024) ~dev () =
  let t =
    { eps =
        Array.init shards (fun i ->
            Svc.create ~subsystem:"bcache"
              ~label:(Printf.sprintf "bcache-%d" i) ());
      hits = 0;
      misses = 0;
      read_retries = 0;
      miss_c = Metrics.counter ~subsystem:"bcache" "misses" }
  in
  Array.iter
    (fun ep ->
      let st =
        { bufs = Hashtbl.create 64; capacity = max 1 (capacity / shards);
          tick = 0 }
      in
      (* a refill that gave up answers [Io_fail] instead of killing the
         unsupervised shard fiber: the caller gets the error, and the
         shard keeps serving *)
      ignore
        (Svc.start ~words_of_resp ep (fun req ->
             try handle t st dev req with Blockdev.Io_error -> Io_fail)))
    t.eps;
  t

(* Hashed, not [block mod shards]: Cgalloc's group stride is a multiple
   of the shard count on E3's machines, so every group's first blocks
   would share one shard. *)
let shard_for t block = t.eps.(Hashtbl.hash block mod Array.length t.eps)

let get t block =
  match Svc.call ~words:4 (shard_for t block) (Get block) with
  | Data d -> d
  | Io_fail -> raise Blockdev.Io_error
  | Done -> assert false

let get_range t block ~off ~len =
  match
    Svc.call ~words:5 (shard_for t block) (Get_range { block; off; len })
  with
  | Data d -> d
  | Io_fail -> raise Blockdev.Io_error
  | Done -> assert false

let put t block ~off data =
  match
    Svc.call
      ~words:(4 + ((String.length data + 7) / 8))
      (shard_for t block)
      (Put { block; off; data })
  with
  | Done -> ()
  | Io_fail -> raise Blockdev.Io_error
  | Data _ -> assert false

let zero t block =
  match Svc.call ~words:4 (shard_for t block) (Zero block) with
  | Done -> ()
  | Data _ | Io_fail -> assert false

let flush t =
  Array.iter
    (fun ep ->
      match Svc.call ep Flush with Done -> () | Data _ | Io_fail -> assert false)
    t.eps

let hits t = t.hits

let misses t = t.misses

let read_retries t = t.read_retries

let shards t = Array.length t.eps
