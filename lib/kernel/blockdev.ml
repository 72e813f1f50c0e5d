module Fiber = Chorus.Fiber
module Rng = Chorus_util.Rng
module Diskmodel = Chorus_machine.Diskmodel
module Fsspec = Chorus_fsspec.Fsspec
module Svc = Chorus_svc.Svc

type req = Read of int | Write of int * bytes

type resp = Data of bytes | Done | Io_fail

exception Io_error

type t = {
  ep : (req, resp) Svc.t;
  store : (int, bytes) Hashtbl.t;
  mutable head : int;
  mutable reads : int;
  mutable writes : int;
  mutable in_body : int;
  mutable max_concurrency : int;
  disk : Diskmodel.t;
  (* transient read-fault injection (chaos): own RNG so the fault
     stream is independent of the run's, drawn only while p > 0 *)
  mutable fault_p : float;
  mutable fault_rng : Rng.t;
  mutable nread_errors : int;
}

let service t req =
  t.in_body <- t.in_body + 1;
  if t.in_body > t.max_concurrency then t.max_concurrency <- t.in_body;
  let block = match req with Read b -> b | Write (b, _) -> b in
  let svc = Diskmodel.service_time t.disk ~last_block:t.head ~block in
  t.head <- block;
  (* device busy; the wake-up at the end is the "interrupt" *)
  Fiber.sleep svc;
  let resp =
    match req with
    | Read b ->
      t.reads <- t.reads + 1;
      (* a faulted read still paid the full seek+transfer above — the
         sector came back unreadable, the arm still moved *)
      if t.fault_p > 0.0 && Rng.bernoulli t.fault_rng t.fault_p then begin
        t.nread_errors <- t.nread_errors + 1;
        Io_fail
      end
      else
        let data =
          match Hashtbl.find_opt t.store b with
          | Some d -> Bytes.copy d
          | None -> Bytes.make Fsspec.block_size '\000'
        in
        Data data
    | Write (b, data) ->
      t.writes <- t.writes + 1;
      Hashtbl.replace t.store b (Bytes.copy data);
      Done
  in
  t.in_body <- t.in_body - 1;
  resp

let words_of_resp = function
  | Data _ -> 4 + (Fsspec.block_size / 8)
  | Done | Io_fail -> 2

let start ?priority ~disk () =
  let ep = Svc.create ~subsystem:"blockdev" ~label:"blockdev" () in
  let t =
    { ep; store = Hashtbl.create 256; head = 0; reads = 0; writes = 0;
      in_body = 0; max_concurrency = 0; disk; fault_p = 0.0;
      fault_rng = Rng.make 97; nread_errors = 0 }
  in
  let (_ : Fiber.t) = Svc.start ?priority ~words_of_resp ep (service t) in
  t

let words_of_block = Fsspec.block_size / 8


let read_result t block =
  match Svc.call ~words:4 t.ep (Read block) with
  | Data d -> Ok d
  | Io_fail -> Error `Io_error
  | Done -> assert false

let read t block =
  match read_result t block with Ok d -> d | Error `Io_error -> raise Io_error

let write t block data =
  match Svc.call ~words:(4 + words_of_block) t.ep (Write (block, data)) with
  | Done -> ()
  | Data _ | Io_fail -> assert false

let set_read_fault t ?(p = 0.0) ?seed () =
  if p < 0.0 || p >= 1.0 then invalid_arg "Blockdev: fault p must be in [0, 1)";
  t.fault_p <- p;
  match seed with Some s -> t.fault_rng <- Rng.make s | None -> ()

let read_errors t = t.nread_errors

let reads t = t.reads

let writes t = t.writes

let max_queue t = Svc.hwm t.ep

let max_concurrency t = t.max_concurrency
