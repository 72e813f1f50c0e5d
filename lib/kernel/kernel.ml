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
}

let boot cfg =
  let dev = Blockdev.start () in
  let bcache = Bcache.start ~shards:cfg.bcache_shards ~capacity:1024 ~dev () in
  let alloc = Cgalloc.start ~groups:cfg.cgroups ~nblocks:65536 () in
  let vfs = Msgvfs.mount cfg.fs ~bcache ~alloc in
  { dev; bcache; alloc; vfs }

let fs_client t = Msgvfs.client t.vfs

let sync t = Bcache.flush t.bcache

let service_fibers t =
  (* the disk driver *)
  1
  + Bcache.shards t.bcache
  + Cgalloc.groups t.alloc
  + Msgvfs.live_vnodes t.vfs
  + Msgvfs.caches t.vfs
