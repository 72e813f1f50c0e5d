type config = {
  fs : Msgvfs.config;
  bcache_shards : int;
  cgroups : int;
}

let default_config =
  { fs = Msgvfs.default_config;
    bcache_shards = 8;
    cgroups = 8 }

type t = {
  dev : Blockdev.t;
  bcache : Bcache.t;
  alloc : Cgalloc.t;
  vfs : Msgvfs.sys;
  notify : Notify.t;
  proc : Proc.t;
  console : Console.t;
}

let boot cfg =
  let dev = Blockdev.start () in
  let bcache = Bcache.start ~shards:cfg.bcache_shards ~capacity:1024 ~dev () in
  let alloc = Cgalloc.start ~groups:cfg.cgroups ~nblocks:65536 () in
  let vfs = Msgvfs.mount cfg.fs ~bcache ~alloc in
  let notify = Notify.start () in
  let proc = Proc.start ~notify () in
  let console = Console.start () in
  { dev; bcache; alloc; vfs; notify; proc; console }

let fs_client t = Msgvfs.client t.vfs

let sync t = Bcache.flush t.bcache

let service_fibers t =
  (* drivers *)
  2
  + Bcache.shards t.bcache
  + Cgalloc.groups t.alloc
  + Msgvfs.live_vnodes t.vfs
  + Msgvfs.caches t.vfs
  + (* notify + proc *) 2
