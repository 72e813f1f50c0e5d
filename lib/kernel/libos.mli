(** The aggressive design: applications on bare cores with a libOS.

    Paper Section 4: "one might well run applications directly on a
    bare core with no system services at all underneath.  If an
    application wants e.g. virtual memory services ... it can provide
    them itself or link with system-provided code in libOS fashion."

    A libOS filesystem instance is service code linked {e into} the
    application: operations are direct procedure calls on private
    state — no traps (there is no kernel underneath), no messages (no
    one to talk to), and trivially no lock contention (nothing is
    shared).  The trade: no sharing between applications at all.
    The code is the lock kernel's, {!Chorus_baseline.Shvfs}, included
    whole and built with one cache shard and no traps.  E12 prices
    this against conservative message syscalls. *)

type t

val make : unit -> t
(** A private filesystem for one application: 1024 inodes, 16384
    blocks, a 512-block cache, the default disk model. *)

include Chorus_fsspec.Fsspec.S with type t := t
