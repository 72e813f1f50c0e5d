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

  let client fs cfg zipf ~client_id =
    let rng = Rng.make (cfg.seed + (client_id * 7919) + 13) in
    let latency = Histogram.create () in
    let hist_of = Hashtbl.create 8 in
    let hist name =
      match Hashtbl.find_opt hist_of name with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        Hashtbl.replace hist_of name h;
        h
    in
    let failed = ref 0 in
    let timed name f =
      let t0 = Fiber.now () in
      let ok = f () in
      let dt = Fiber.now () - t0 in
      Histogram.record latency dt;
      Histogram.record (hist name) dt;
      if not ok then incr failed
    in
    (* one cached open fd per client per file it has touched *)
    let fds = Hashtbl.create 16 in
    let fd_for i =
      match Hashtbl.find_opt fds i with
      | Some fd -> Ok fd
      | None -> (
        match F.open_ fs (file_path cfg i) with
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
        timed "read" (fun () ->
            match fd_for i with
            | Error _ -> false
            | Ok fd ->
              let off =
                Rng.int rng (max 1 (cfg.file_size - cfg.io_size))
              in
              Result.is_ok (F.read fs fd ~off ~len:cfg.io_size))
      | Write ->
        timed "write" (fun () ->
            match fd_for i with
            | Error _ -> false
            | Ok fd ->
              let off =
                Rng.int rng (max 1 (cfg.file_size - cfg.io_size))
              in
              Result.is_ok (F.write fs fd ~off (payload cfg op)))
      | Stat ->
        timed "stat" (fun () ->
            Result.is_ok (F.stat fs (file_path cfg i)))
      | Create_unlink ->
        timed "create" (fun () ->
            let p = Printf.sprintf "/dir%d/tmp-%d-%d" (client_id mod cfg.dirs)
                      client_id op in
            match F.create fs p with
            | Error _ -> false
            | Ok () -> Result.is_ok (F.unlink fs p))
    done;
    Hashtbl.iter (fun i fd -> ignore (F.close fs fd); ignore i) fds;
    { total_ops = cfg.ops_per_client;
      failed_ops = !failed;
      elapsed = 0;
      latency;
      per_op =
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) hist_of []
        |> List.sort compare }

  let merge a b =
    let merge_assoc la lb =
      let names =
        List.sort_uniq compare (List.map fst la @ List.map fst lb)
      in
      List.map
        (fun n ->
          let get l =
            Option.value ~default:(Histogram.create ()) (List.assoc_opt n l)
          in
          (n, Histogram.merge (get la) (get lb)))
        names
    in
    { total_ops = a.total_ops + b.total_ops;
      failed_ops = a.failed_ops + b.failed_ops;
      elapsed = max a.elapsed b.elapsed;
      latency = Histogram.merge a.latency b.latency;
      per_op = merge_assoc a.per_op b.per_op }

  let run_clients view cfg =
    let results = Chorus.Chan.unbounded () in
    (* the popularity table depends on the config alone: build it once
       for every client *)
    let zipf = Zipf.make ~n:cfg.files ~theta:cfg.theta in
    let t0 = Fiber.now () in
    let fibers =
      List.init cfg.clients (fun id ->
          Fiber.spawn ~label:(Printf.sprintf "client-%d" id) (fun () ->
              let r = client (view id) cfg zipf ~client_id:id in
              Chorus.Chan.send results r))
    in
    List.iter (fun f -> ignore (Fiber.join f)) fibers;
    let elapsed = Fiber.now () - t0 in
    let rec collect acc n =
      if n = 0 then acc
      else collect (merge acc (Chorus.Chan.recv results)) (n - 1)
    in
    let merged =
      collect
        { total_ops = 0; failed_ops = 0; elapsed = 0;
          latency = Histogram.create (); per_op = [] }
        cfg.clients
    in
    { merged with elapsed }
end
