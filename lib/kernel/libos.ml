module Shvfs = Chorus_baseline.Shvfs
module Diskmodel = Chorus_machine.Diskmodel

(* Linking the service code into the app means the lock-based
   implementation runs with zero contention and zero traps — the same
   code path minus the kernel boundary, which is exactly the
   aggressive design's cost profile. *)
type t = Shvfs.t

let make () =
  let sys =
    Shvfs.make
      { Shvfs.ninodes = 1024; nblocks = 16384; cache_blocks = 512;
        shards = 1; trap_per_op = false; disk = Diskmodel.default }
  in
  Shvfs.client sys

let mkdir = Shvfs.mkdir

let create = Shvfs.create

let open_ = Shvfs.open_

let close = Shvfs.close

let read = Shvfs.read

let write = Shvfs.write

let stat = Shvfs.stat

let unlink = Shvfs.unlink

let rename = Shvfs.rename

let readdir = Shvfs.readdir
