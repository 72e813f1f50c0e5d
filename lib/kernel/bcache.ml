module Fiber = Chorus.Fiber
module Fsspec = Chorus_fsspec.Fsspec
module Metrics = Chorus_obs.Metrics
module Svc = Chorus_svc.Svc
module Cost = Chorus_machine.Cost

type req =
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

(* Each request carries the function that answers it, which the shard
   calls in its own fiber: a reply send to a waiting caller, or to
   whoever the caller handed the request on for (DESIGN D18).  A
   message is a list of them, served in order (DESIGN D20). *)
type entry = req * (resp -> unit)

type t = {
  eps : entry list Svc.cast array;
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
  | Data s -> 2 + Cost.words_of_bytes (String.length s)
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
            Svc.cast_create ~subsystem:"bcache"
              ~label:(Printf.sprintf "bcache-%d" i) ());
      hits = 0;
      misses = 0;
      read_retries = 0;
      miss_c = Metrics.counter ~subsystem:"bcache" "misses" }
  in
  let place = Place.current () in
  Array.iteri
    (fun i ep ->
      let st =
        { bufs = Hashtbl.create 64; capacity = max 1 (capacity / shards);
          tick = 0 }
      in
      (* a refill that gave up answers [Io_fail] instead of killing the
         unsupervised shard fiber: the caller gets the error, and the
         shard keeps serving *)
      ignore
        (Svc.start_cast ~on:(Place.shard place i) ep
           (List.iter (fun (req, answer) ->
                answer
                  (try handle t st dev req
                   with Blockdev.Io_error -> Io_fail)))))
    t.eps;
  t

(* Hashed, not [block mod shards]: Cgalloc's group stride is a multiple
   of the shard count on E3's machines, so every group's first blocks
   would share one shard. *)
let shard_of t block = Hashtbl.hash block mod Array.length t.eps

let shard_for t block = t.eps.(shard_of t block)

(* Charge for charge [Svc.call]: a one-shot reply channel, a message of
   one request with the answer that replies on it, and the wait for the
   reply. *)
let call ?(words = 2) ep req =
  let r = Svc.reply_chan () in
  Svc.cast ~words ep
    [ (req, fun resp -> Svc.answer ~words:(words_of_resp resp) r resp) ];
  Svc.await r

(* Requests held by their sender: per shard, in the order the shards
   were first used, the summed request words and the requests newest
   first. *)
type outbox = { mutable held : (int * int * entry list) list }

let outbox () = { held = [] }

let hold t out block ~words e =
  let i = shard_of t block in
  let rec add = function
    | [] -> [ (i, words, [ e ]) ]
    | (j, w, es) :: rest when j = i -> (j, w + words, e :: es) :: rest
    | x :: rest -> x :: add rest
  in
  out.held <- add out.held

let send t out =
  let held = out.held in
  out.held <- [];
  List.iter
    (fun (i, words, es) -> Svc.cast ~words t.eps.(i) (List.rev es))
    held;
  List.map (fun (_, _, es) -> List.length es) held

let data = function
  | Data d -> Ok d
  | Io_fail -> Error `Io_error
  | Done -> assert false

let done_ = function
  | Done -> Ok ()
  | Io_fail -> Error `Io_error
  | Data _ -> assert false

let or_raise = function Ok v -> v | Error `Io_error -> raise Blockdev.Io_error

let put_words data = 4 + Cost.words_of_bytes (String.length data)

let get_range_to t out block ~off ~len answer =
  hold t out block ~words:5
    (Get_range { block; off; len }, fun resp -> answer (data resp))

let put_to t out block ~off d answer =
  hold t out block ~words:(put_words d)
    (Put { block; off; data = d }, fun resp -> answer (done_ resp))

let get_range t block ~off ~len =
  or_raise
    (data (call ~words:5 (shard_for t block) (Get_range { block; off; len })))

let put t block ~off d =
  or_raise
    (done_
       (call ~words:(put_words d) (shard_for t block)
          (Put { block; off; data = d })))

let zero t block =
  match call ~words:4 (shard_for t block) (Zero block) with
  | Done -> ()
  | Data _ | Io_fail -> assert false

let flush t =
  Array.iter
    (fun ep ->
      match call ep Flush with Done -> () | Data _ | Io_fail -> assert false)
    t.eps

let hits t = t.hits

let misses t = t.misses

let read_retries t = t.read_retries

let shards t = Array.length t.eps
