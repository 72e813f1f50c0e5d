(** Length-prefixed wire encoding for cluster messages.

    Cluster payloads (raft RPCs, client operations, shard maps) carry
    arbitrary keys and values, so unlike a separator-based format they
    need framing that cannot be confused by payload bytes.  Integers are decimal followed by [';']; strings are
    [<len>:<bytes>].  Decoding raises {!Malformed} on any violation —
    handlers catch it and answer with a protocol error. *)

exception Malformed

val enc_int : Buffer.t -> int -> unit

val enc_str : Buffer.t -> string -> unit

type reader

val reader : ?pos:int -> string -> reader
(** [pos] skips a leading opcode byte when 1 (default 0). *)

val int_ : reader -> int

val str_ : reader -> string
