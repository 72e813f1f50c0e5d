module Engine = Chorus.Engine
module Cost = Chorus_machine.Cost
module Diskmodel = Chorus_machine.Diskmodel
module Fsspec = Chorus_fsspec.Fsspec

type config = {
  ninodes : int;
  nblocks : int;
  cache_blocks : int;
  shards : int;
  trap_per_op : bool;
}

let default_config =
  { ninodes = 4096;
    nblocks = 65536;
    cache_blocks = 1024;
    shards = 8;
    trap_per_op = true }

(* ------------------------------------------------------------------ *)

type inode = {
  ino : int;
  mutable ikind : Fsspec.kind;
  mutable size : int;
  mutable iblocks : int list;  (** data block numbers, in file order *)
  entries : (string, int) Hashtbl.t;  (** directory contents *)
  ilock : Lock.t;
  mutable allocated : bool;
}

type shard = {
  slock : Lock.t;
  bufs : (int, Fsspec.buf) Hashtbl.t;
  capacity : int;
}

type sys = {
  cfg : config;
  inodes : inode array;
  itable_lock : Lock.t;
  namecache : (int * string, int) Hashtbl.t;
  nc_lock : Rwlock.t;
  freemap : bool array;  (** true = free *)
  mutable free_hint : int;
  freemap_lock : Lock.t;
  shards : shard array;
  disk_store : (int, bytes) Hashtbl.t;
  disk_lock : Lock.t;
  mutable disk_head : int;
  mutable tick : int;  (** LRU clock *)
}

type t = { sys : sys; fds : (int, int) Hashtbl.t; mutable next_fd : int }

let make cfg =
  let inode i =
    { ino = i; ikind = Fsspec.Dir; size = 0; iblocks = [];
      entries = Hashtbl.create 8;
      ilock = Lock.create ~label:(Printf.sprintf "inode-%d" i) ();
      allocated = false }
  in
  let sys =
    { cfg;
      inodes = Array.init cfg.ninodes inode;
      itable_lock = Lock.create ~label:"itable" ();
      namecache = Hashtbl.create 256;
      nc_lock = Rwlock.create ~label:"namecache" ();
      freemap = Array.make cfg.nblocks true;
      free_hint = 0;
      freemap_lock = Lock.create ~label:"freemap" ();
      shards =
        Array.init cfg.shards (fun i ->
            { slock = Lock.create ~label:(Printf.sprintf "bcache-%d" i) ();
              bufs = Hashtbl.create 64;
              capacity = max 1 (cfg.cache_blocks / cfg.shards) });
      disk_store = Hashtbl.create 1024;
      disk_lock = Lock.create ~label:"disk" ();
      disk_head = 0;
      tick = 0 }
  in
  (* inode 0 is the root directory *)
  sys.inodes.(0).allocated <- true;
  sys

let client sys = { sys; fds = Hashtbl.create 16; next_fd = 3 }

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)

let disk_io sys ~write block data =
  Lock.with_lock sys.disk_lock (fun () ->
      let eng = Engine.current () in
      let svc = Diskmodel.service_time ~last_block:sys.disk_head ~block in
      sys.disk_head <- block;
      Engine.sleep eng svc;
      if write then begin
        Hashtbl.replace sys.disk_store block (Bytes.copy data);
        data
      end
      else
        match Hashtbl.find_opt sys.disk_store block with
        | Some d -> Bytes.copy d
        | None -> Bytes.make Fsspec.block_size '\000')

(* ------------------------------------------------------------------ *)
(* Buffer cache (sharded; shard lock held across miss I/O, as in the
   classic design)                                                     *)

let charge_copy eng bytes_len =
  let c = Engine.costs eng in
  Engine.charge eng (Cost.words_of_bytes bytes_len * c.Cost.msg_per_word)

let shard_of sys block = sys.shards.(block mod Array.length sys.shards)

let evict_if_full sys shard =
  Fsspec.evict_lru shard.bufs ~capacity:shard.capacity
    ~write_back:(fun block data -> ignore (disk_io sys ~write:true block data))

(* a freshly allocated block must not be read from disk: seed the
   cache with zeroes *)
let cache_zero sys block =
  let shard = shard_of sys block in
  Lock.with_lock shard.slock (fun () ->
      sys.tick <- sys.tick + 1;
      evict_if_full sys shard;
      Hashtbl.replace shard.bufs block
        { Fsspec.data = Bytes.make Fsspec.block_size '\000'; dirty = true;
          last_use = sys.tick })

let with_block sys block f =
  let eng = Engine.current () in
  let shard = shard_of sys block in
  Lock.with_lock shard.slock (fun () ->
      sys.tick <- sys.tick + 1;
      let buf =
        match Hashtbl.find_opt shard.bufs block with
        | Some b ->
          Engine.charge eng (Engine.costs eng).Cost.cache_hit;
          b
        | None ->
          evict_if_full sys shard;
          let data = disk_io sys ~write:false block Bytes.empty in
          let b = { Fsspec.data; dirty = false; last_use = sys.tick } in
          Hashtbl.replace shard.bufs block b;
          b
      in
      buf.Fsspec.last_use <- sys.tick;
      f buf)

(* ------------------------------------------------------------------ *)
(* Block allocation                                                    *)

let alloc_block sys =
  Lock.with_lock sys.freemap_lock (fun () ->
      let eng = Engine.current () in
      let n = Array.length sys.freemap in
      let rec scan tried i =
        if tried >= n then None
        else if sys.freemap.(i) then begin
          sys.freemap.(i) <- false;
          sys.free_hint <- (i + 1) mod n;
          Some i
        end
        else scan (tried + 1) ((i + 1) mod n)
      in
      Engine.charge eng (Engine.costs eng).Cost.cache_miss;
      scan 0 sys.free_hint)

let free_block sys b =
  Lock.with_lock sys.freemap_lock (fun () -> sys.freemap.(b) <- true)

(* ------------------------------------------------------------------ *)
(* Inode allocation                                                    *)

let alloc_inode sys kind =
  Lock.with_lock sys.itable_lock (fun () ->
      let eng = Engine.current () in
      Engine.charge eng (Engine.costs eng).Cost.cache_miss;
      let n = Array.length sys.inodes in
      let rec scan i =
        if i >= n then None
        else if not sys.inodes.(i).allocated then begin
          let ind = sys.inodes.(i) in
          ind.allocated <- true;
          ind.ikind <- kind;
          ind.size <- 0;
          ind.iblocks <- [];
          Hashtbl.reset ind.entries;
          Some ind
        end
        else scan (i + 1)
      in
      scan 1)

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)

let nc_lookup sys dir name =
  Rwlock.with_read sys.nc_lock (fun () ->
      let eng = Engine.current () in
      Engine.charge eng (Engine.costs eng).Cost.cache_hit;
      Hashtbl.find_opt sys.namecache (dir, name))

let nc_insert sys dir name ino =
  Rwlock.with_write sys.nc_lock (fun () ->
      Hashtbl.replace sys.namecache (dir, name) ino)

let nc_invalidate sys dir name =
  Rwlock.with_write sys.nc_lock (fun () ->
      Hashtbl.remove sys.namecache (dir, name))

(* Resolve every component; returns the inode. *)
let rec walk sys cur = function
  | [] -> Ok cur
  | name :: rest ->
    let dir = sys.inodes.(cur) in
    if dir.ikind <> Fsspec.Dir then Error Fsspec.Enotdir
    else begin
      let child =
        match nc_lookup sys cur name with
        | Some ino -> Some ino
        | None ->
          Lock.with_lock dir.ilock (fun () ->
              let eng = Engine.current () in
              Engine.charge eng (2 * (Engine.costs eng).Cost.cache_miss);
              match Hashtbl.find_opt dir.entries name with
              | Some ino ->
                nc_insert sys cur name ino;
                Some ino
              | None -> None)
      in
      match child with
      | Some ino -> walk sys ino rest
      | None -> Error Fsspec.Enoent
    end

let resolve sys path =
  match Fsspec.split_path path with
  | Error e -> Error e
  | Ok comps -> walk sys 0 comps

let resolve_parent sys path =
  match Fsspec.split_parent path with
  | Error e -> Error e
  | Ok (parents, name) -> (
    match walk sys 0 parents with
    | Error e -> Error e
    | Ok dir ->
      if sys.inodes.(dir).ikind <> Fsspec.Dir then Error Fsspec.Enotdir
      else Ok (dir, name))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let maybe_trap sys f = if sys.cfg.trap_per_op then Trap.syscall f else f ()

let make_node t path kind =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      match resolve_parent sys path with
      | Error e -> Error e
      | Ok (dirno, name) ->
        let dir = sys.inodes.(dirno) in
        if dir.ikind <> Fsspec.Dir then Error Fsspec.Enotdir
        else
          Lock.with_lock dir.ilock (fun () ->
              if Hashtbl.mem dir.entries name then Error Fsspec.Eexist
              else
                match alloc_inode sys kind with
                | None -> Error Fsspec.Enospc
                | Some ind ->
                  Hashtbl.replace dir.entries name ind.ino;
                  nc_insert sys dirno name ind.ino;
                  Ok ()))

let mkdir t path = make_node t path Fsspec.Dir

let create t path = make_node t path Fsspec.File

let open_ t path =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      match resolve sys path with
      | Error e -> Error e
      | Ok ino ->
        if sys.inodes.(ino).ikind <> Fsspec.File then Error Fsspec.Eisdir
        else begin
          let fd = t.next_fd in
          t.next_fd <- fd + 1;
          Hashtbl.replace t.fds fd ino;
          Ok fd
        end)

let close t fd =
  maybe_trap t.sys (fun () ->
      if Hashtbl.mem t.fds fd then begin
        Hashtbl.remove t.fds fd;
        Ok ()
      end
      else Error Fsspec.Ebadf)

let fd_inode t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some ino -> Ok ino
  | None -> Error Fsspec.Ebadf

(* the block at file index [idx], allocating up to it as needed *)
let rec nth_block sys ind idx =
  match List.nth_opt ind.iblocks idx with
  | Some b -> Ok b
  | None -> (
    match alloc_block sys with
    | None -> Error Fsspec.Enospc
    | Some b ->
      cache_zero sys b;
      ind.iblocks <- ind.iblocks @ [ b ];
      (* blocks are appended in order; recurse until idx covered *)
      nth_block sys ind idx)

let read t fd ~off ~len =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      if off < 0 || len < 0 then Error Fsspec.Einval
      else
        match fd_inode t fd with
        | Error e -> Error e
        | Ok ino ->
          let ind = sys.inodes.(ino) in
          Lock.with_lock ind.ilock (fun () ->
              let eng = Engine.current () in
              let len = max 0 (min len (ind.size - off)) in
              let out = Bytes.make len '\000' in
              Fsspec.fold_range ~off ~len
                (fun () ~bidx ~boff ~pos ~chunk ->
                  (match List.nth_opt ind.iblocks bidx with
                  | Some b ->
                    with_block sys b (fun buf ->
                        Bytes.blit buf.data boff out pos chunk)
                  | None -> ());
                  Ok ())
                ()
              |> Result.map (fun () ->
                     charge_copy eng len;
                     Bytes.to_string out)))

let write t fd ~off data =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      if off < 0 then Error Fsspec.Einval
      else
        match fd_inode t fd with
        | Error e -> Error e
        | Ok ino ->
          let ind = sys.inodes.(ino) in
          Lock.with_lock ind.ilock (fun () ->
              let eng = Engine.current () in
              let len = String.length data in
              Fsspec.fold_range ~off ~len
                (fun () ~bidx ~boff ~pos ~chunk ->
                  Result.map
                    (fun b ->
                      with_block sys b (fun buf ->
                          Bytes.blit_string data pos buf.data boff chunk;
                          buf.dirty <- true))
                    (nth_block sys ind bidx))
                ()
              |> Result.map (fun () ->
                     charge_copy eng len;
                     if off + len > ind.size then ind.size <- off + len;
                     len)))

let stat t path =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      match resolve sys path with
      | Error e -> Error e
      | Ok ino ->
        let ind = sys.inodes.(ino) in
        Ok
          { Fsspec.kind = ind.ikind;
            size =
              (if ind.ikind = Fsspec.Dir then Hashtbl.length ind.entries
               else ind.size);
            blocks = List.length ind.iblocks })

let unlink t path =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      match resolve_parent sys path with
      | Error e -> Error e
      | Ok (dirno, name) ->
        let dir = sys.inodes.(dirno) in
        Lock.with_lock dir.ilock (fun () ->
            match Hashtbl.find_opt dir.entries name with
            | None -> Error Fsspec.Enoent
            | Some ino ->
              let ind = sys.inodes.(ino) in
              Lock.with_lock ind.ilock (fun () ->
                  if
                    ind.ikind = Fsspec.Dir && Hashtbl.length ind.entries > 0
                  then Error Fsspec.Enotempty
                  else begin
                    Hashtbl.remove dir.entries name;
                    nc_invalidate sys dirno name;
                    List.iter (free_block sys) ind.iblocks;
                    ind.iblocks <- [];
                    ind.size <- 0;
                    ind.allocated <- false;
                    Ok ()
                  end)))

let rename t src dst =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      if Fsspec.path_inside ~src ~dst then Error Fsspec.Einval
      else
        match resolve_parent sys src with
        | Error e -> Error e
        | Ok (sdirno, sname) ->
          let sdir = sys.inodes.(sdirno) in
          (* source must exist before the destination resolves (error
             precedence matches the reference model) *)
          if not (Lock.with_lock sdir.ilock (fun () ->
                      Hashtbl.mem sdir.entries sname))
          then Error Fsspec.Enoent
          else (
            match resolve_parent sys dst with
            | Error e -> Error e
            | Ok (ddirno, dname) ->
              let ddir = sys.inodes.(ddirno) in
              (* take both directory locks in inode order so two
                 concurrent renames cannot deadlock *)
              let first, second =
                if sdirno = ddirno then (sdir, None)
                else if sdirno < ddirno then (sdir, Some ddir)
                else (ddir, Some sdir)
              in
              Lock.with_lock first.ilock (fun () ->
                  let locked_body () =
                    match Hashtbl.find_opt sdir.entries sname with
                    | None -> Error Fsspec.Enoent
                    | Some ino ->
                      if Hashtbl.mem ddir.entries dname then
                        Error Fsspec.Eexist
                      else begin
                        Hashtbl.remove sdir.entries sname;
                        Hashtbl.replace ddir.entries dname ino;
                        nc_invalidate sys sdirno sname;
                        nc_insert sys ddirno dname ino;
                        Ok ()
                      end
                  in
                  match second with
                  | None -> locked_body ()
                  | Some snd_dir ->
                    Lock.with_lock snd_dir.ilock locked_body)))

let readdir t path =
  let sys = t.sys in
  maybe_trap sys (fun () ->
      match resolve sys path with
      | Error e -> Error e
      | Ok ino ->
        let ind = sys.inodes.(ino) in
        if ind.ikind <> Fsspec.Dir then Error Fsspec.Enotdir
        else
          Lock.with_lock ind.ilock (fun () ->
              let names = Hashtbl.fold (fun k _ acc -> k :: acc) ind.entries [] in
              Ok (List.sort compare names)))
