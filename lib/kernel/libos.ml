(* Linking the service code into the app means the lock-based
   implementation runs with zero contention and zero traps — the same
   code path minus the kernel boundary, which is exactly the
   aggressive design's cost profile. *)
include Chorus_baseline.Shvfs

let make () =
  client
    (make
       { ninodes = 1024; nblocks = 16384; cache_blocks = 512; shards = 1;
         trap_per_op = false })
