(** Block cache as a set of autonomous shard fibers.

    Where the baseline shards a lock, the message kernel shards the
    {e service}: each shard fiber privately owns the cache state for
    the blocks hashed to it, so there is no lock at all — mutual
    exclusion is the fiber's sequential message loop.  Shards talk to
    the disk driver directly; a missing block blocks only its own
    shard.

    A shard's inbox carries lists of (request, answer) pairs, and the
    shard serves the pairs in the order they were sent.  The shard
    calls each answer with its response in its own fiber, so the reply
    is charged to the shard, from the shard's core.  The waiting
    entries ({!get_range}, {!put}, {!zero}, {!flush}) send a list of
    one, answer on a one-shot reply channel and wait on it, charge for
    charge a [Svc.call].  The [_to] entries take the answer from the
    caller and send nothing: they add the request to an {!outbox} the
    caller owns, and {!send} sends what it holds, one message per
    shard.  A file vnode passes one-block reads and overwrites on with
    answers that reply to its own clients, and sends its outbox when
    its inbox runs dry, so a shard gets in one message the requests
    that queued while the vnode was busy (DESIGN D18, D20). *)

type t

val start : ?shards:int -> ?capacity:int -> dev:Blockdev.t -> unit -> t
(** [start ~dev ()] spawns the shard fibers (default 8 shards, 1024
    blocks total capacity, LRU per shard, write-back on eviction).
    The kernel places them, not the run's policy: shard [i] runs at
    rank [2i] outward from the centre of the chip ({!Place}, DESIGN
    D22). *)

val get_range : t -> int -> off:int -> len:int -> string
(** [get_range t block ~off ~len] returns just the requested byte
    range (cache fill from disk on miss), clamped at the block's end.
    The reply is sized by the bytes it carries, not by the block, so
    only the bytes asked for cross the interconnect.  Raises
    {!Blockdev.Io_error} when the fill gives up (see
    {!read_retries}). *)

type outbox
(** Requests held by their sender until it calls {!send}. *)

val outbox : unit -> outbox

val send : t -> outbox -> int list
(** Send the held requests, one message to each shard they are for,
    in the order those shards were first used, and empty the outbox.
    A message carries its shard's requests in the order they were
    held and is charged one injection plus their summed words.
    Returns how many requests each message carried, in send order. *)

val get_range_to :
  t -> outbox -> int -> off:int -> len:int ->
  ((string, [ `Io_error ]) result -> unit) -> unit
(** [get_range_to t out block ~off ~len answer] holds the same request
    as {!get_range} (5 words) in [out]; the shard calls [answer] with
    the bytes, or [Error `Io_error] when the fill gives up. *)

val put : t -> int -> off:int -> string -> unit
(** [put t block ~off data] writes [data] into the cached block at
    byte offset [off], marking it dirty (read-modify-write of the
    block on a partial overwrite).  Raises {!Blockdev.Io_error} like
    {!get_range} when the block must first be read in. *)

val put_to :
  t -> outbox -> int -> off:int -> string ->
  ((unit, [ `Io_error ]) result -> unit) -> unit
(** {!put}'s request held in the outbox; the shard calls the answer
    like {!get_range_to}'s. *)

val zero : t -> int -> unit
(** Reset a freed block's cached contents to zeroes (used on
    allocation so stale data never leaks between files). *)

val flush : t -> unit
(** Write all dirty blocks back to the device. *)

val hits : t -> int

val misses : t -> int

val read_retries : t -> int
(** Transient {!Blockdev} read faults absorbed by the refill path:
    each fault costs one bounded exponential-backoff retry (up to 10
    attempts, 2k–32k cycle sleeps).  Only the faulted shard stalls
    while it retries.  After the 10th failed attempt the shard gives
    up on that request alone: {!get_range} or {!put} raises
    {!Blockdev.Io_error} in the caller's fiber, {!get_range_to} and
    {!put_to} answer [Error `Io_error], and the shard keeps
    serving. *)

val shards : t -> int
