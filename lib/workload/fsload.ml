module Rng = Chorus_util.Rng
module Zipf = Chorus_util.Zipf
module Histogram = Chorus_util.Histogram
module Fiber = Chorus.Fiber
module Fsspec = Chorus_fsspec.Fsspec

type mix = { read_ : int; write_ : int; stat_ : int; create_unlink : int }

let default_mix = { read_ = 60; write_ = 25; stat_ = 10; create_unlink = 5 }

type config = {
  clients : int;
  ops_per_client : int;
  files : int;
  dirs : int;
  file_size : int;
  io_size : int;
  theta : float;
  mix : mix;
  think : int;
  seed : int;
}

let default_config =
  { clients = 4;
    ops_per_client = 200;
    files = 64;
    dirs = 8;
    file_size = 8192;
    io_size = 512;
    theta = 0.9;
    mix = default_mix;
    think = 200;
    seed = 1 }

type result = {
  total_ops : int;
  failed_ops : int;
  elapsed : int;
  latency : Histogram.t;
  per_op : (string * Histogram.t) list;
}

let throughput r =
  if r.elapsed = 0 then 0.0
  else float_of_int r.total_ops *. 1_000_000.0 /. float_of_int r.elapsed

let dir_path cfg i = Printf.sprintf "/dir%d" (i mod cfg.dirs)

let file_path cfg i = Printf.sprintf "%s/file%d" (dir_path cfg i) i

let payload cfg seed =
  String.init cfg.io_size (fun i -> Char.chr (33 + ((seed + i) mod 90)))

module Make (F : Fsspec.S) = struct
  let setup fs cfg =
    for d = 0 to cfg.dirs - 1 do
      match F.mkdir fs (Printf.sprintf "/dir%d" d) with
      | Ok () -> ()
      | Error e -> failwith ("Fsload.setup mkdir: " ^ Fsspec.err_to_string e)
    done;
    let chunk = String.make (min cfg.file_size 4096) 'a' in
    for i = 0 to cfg.files - 1 do
      let path = file_path cfg i in
      (match F.create fs path with
      | Ok () -> ()
      | Error e -> failwith ("Fsload.setup create: " ^ Fsspec.err_to_string e));
      match F.open_ fs path with
      | Error e -> failwith ("Fsload.setup open: " ^ Fsspec.err_to_string e)
      | Ok fd ->
        let rec fill off =
          if off < cfg.file_size then begin
            let n = min (String.length chunk) (cfg.file_size - off) in
            (match F.write fs fd ~off (String.sub chunk 0 n) with
            | Ok _ -> ()
            | Error e ->
              failwith ("Fsload.setup write: " ^ Fsspec.err_to_string e));
            fill (off + n)
          end
        in
        fill 0;
        ignore (F.close fs fd)
    done

  type op_kind = Read | Write | Stat | Create_unlink

  let pick_op mix rng =
    let total = mix.read_ + mix.write_ + mix.stat_ + mix.create_unlink in
    let r = Rng.int rng total in
    if r < mix.read_ then Read
    else if r < mix.read_ + mix.write_ then Write
    else if r < mix.read_ + mix.write_ + mix.stat_ then Stat
    else Create_unlink

  (* One run's figures.  Every client records into them directly, which
     is safe because the engine runs one fiber at a time. *)
  type acc = {
    latency : Histogram.t;
    per_op : (string, Histogram.t) Hashtbl.t;
    mutable failed : int;
  }

  let timed acc name f =
    let t0 = Fiber.now () in
    let ok = f () in
    let dt = Fiber.now () - t0 in
    Histogram.record acc.latency dt;
    (match Hashtbl.find_opt acc.per_op name with
    | Some h -> Histogram.record h dt
    | None ->
      let h = Histogram.create () in
      Histogram.record h dt;
      Hashtbl.replace acc.per_op name h);
    if not ok then acc.failed <- acc.failed + 1

  let client fs cfg zipf acc ~paths ~payloads ~client_id =
    let rng = Rng.make (cfg.seed + (client_id * 7919) + 13) in
    (* one cached open fd per client per file it has touched *)
    let fds = Hashtbl.create 16 in
    let fd_for i =
      match Hashtbl.find_opt fds i with
      | Some fd -> Ok fd
      | None -> (
        match F.open_ fs paths.(i) with
        | Ok fd ->
          Hashtbl.replace fds i fd;
          Ok fd
        | Error e -> Error e)
    in
    for op = 0 to cfg.ops_per_client - 1 do
      if cfg.think > 0 then Fiber.work cfg.think;
      let i = Zipf.sample zipf rng in
      match pick_op cfg.mix rng with
      | Read ->
        timed acc "read" (fun () ->
            match fd_for i with
            | Error _ -> false
            | Ok fd ->
              let off =
                Rng.int rng (max 1 (cfg.file_size - cfg.io_size))
              in
              Result.is_ok (F.read fs fd ~off ~len:cfg.io_size))
      | Write ->
        timed acc "write" (fun () ->
            match fd_for i with
            | Error _ -> false
            | Ok fd ->
              let off =
                Rng.int rng (max 1 (cfg.file_size - cfg.io_size))
              in
              Result.is_ok (F.write fs fd ~off payloads.(op)))
      | Stat -> timed acc "stat" (fun () -> Result.is_ok (F.stat fs paths.(i)))
      | Create_unlink ->
        timed acc "create" (fun () ->
            let p = Printf.sprintf "/dir%d/tmp-%d-%d" (client_id mod cfg.dirs)
                      client_id op in
            match F.create fs p with
            | Error _ -> false
            | Ok () -> Result.is_ok (F.unlink fs p))
    done;
    Hashtbl.iter (fun i fd -> ignore (F.close fs fd); ignore i) fds

  let run_clients view cfg =
    let results = Chorus.Chan.unbounded () in
    (* the sampler's constants, the paths and the payloads depend on the
       config alone: compute them once for every client *)
    let zipf = Zipf.make ~n:cfg.files ~theta:cfg.theta in
    let paths = Array.init cfg.files (file_path cfg) in
    let payloads = Array.init cfg.ops_per_client (payload cfg) in
    let acc =
      { latency = Histogram.create (); per_op = Hashtbl.create 4; failed = 0 }
    in
    let t0 = Fiber.now () in
    (* a client ends by sending main one default-size message, which
       main takes after the join, outside [elapsed] *)
    let fibers =
      List.init cfg.clients (fun id ->
          Fiber.spawn ~label:(Printf.sprintf "client-%d" id) (fun () ->
              client (view id) cfg zipf acc ~paths ~payloads ~client_id:id;
              Chorus.Chan.send results ()))
    in
    List.iter (fun f -> ignore (Fiber.join f)) fibers;
    let elapsed = Fiber.now () - t0 in
    for _ = 1 to cfg.clients do
      Chorus.Chan.recv results
    done;
    { total_ops = cfg.clients * cfg.ops_per_client;
      failed_ops = acc.failed;
      elapsed;
      latency = acc.latency;
      per_op =
        Hashtbl.fold (fun name h l -> (name, h) :: l) acc.per_op []
        |> List.sort compare }
end
