(** Filesystem interface shared by the message-passing kernel and the
    lock-based baseline.

    Both kernels expose exactly these operations with exactly these
    semantics, so workloads drive either through one code path and
    tests can check both against the same reference model.  Handles
    ([fd]) are per-client small integers; path syntax is absolute,
    ['/']-separated.

    The rules both kernels apply that involve neither a lock nor a
    message live here too, once: path and parent splitting, the
    block-by-block range walk, and the buffer cache's LRU eviction. *)

type err =
  | Enoent  (** path component missing *)
  | Eexist  (** create/mkdir target exists *)
  | Enotdir  (** intermediate component is a file *)
  | Eisdir  (** file operation on a directory *)
  | Enotempty  (** unlink of a non-empty directory *)
  | Ebadf  (** stale or invalid handle *)
  | Enospc  (** out of blocks or inodes *)
  | Einval
  | Eio  (** remote fetch / hydration failed (projected namespaces) *)

type kind = File | Dir

type stat = { kind : kind; size : int; blocks : int }

type fd = int

module type S = sig
  type t
  (** One client's view of a mounted filesystem. *)

  val mkdir : t -> string -> (unit, err) result

  val create : t -> string -> (unit, err) result
  (** Create an empty regular file. *)

  val open_ : t -> string -> (fd, err) result
  (** Open an existing regular file. *)

  val close : t -> fd -> (unit, err) result

  val read : t -> fd -> off:int -> len:int -> (string, err) result
  (** Short reads at EOF; empty string beyond it.  A negative [off] or
      [len] is [Einval], whatever the [fd]. *)

  val write : t -> fd -> off:int -> string -> (int, err) result
  (** Returns bytes written; extends the file as needed.  A negative
      [off] is [Einval], whatever the [fd]. *)

  val stat : t -> string -> (stat, err) result

  val unlink : t -> string -> (unit, err) result
  (** Removes a file, or an empty directory. *)

  val rename : t -> string -> string -> (unit, err) result
  (** [rename t src dst] moves a file or directory; fails [Eexist]
      when [dst] exists, [Einval] when [dst] would be inside [src]. *)

  val readdir : t -> string -> (string list, err) result
  (** Entry names, sorted. *)
end

val err_to_string : err -> string

val split_path : string -> (string list, err) result
(** ["/a/b"] -> [Ok ["a"; "b"]]; rejects relative and empty-component
    paths.  [["/"]] is [Ok []]. *)

val split_parent : string -> (string list * string, err) result
(** ["/a/b/c"] -> [Ok (["a"; "b"], "c")]: the parent's components and
    the last name.  [Einval] for ["/"], which has no parent. *)

val path_inside : src:string -> dst:string -> bool
(** Is [dst] equal to or inside [src]?  (The rename cycle check.) *)

val block_size : int
(** Bytes per block, shared by both kernels' storage layers. *)

val fold_range :
  off:int ->
  len:int ->
  ('a -> bidx:int -> boff:int -> pos:int -> chunk:int -> ('a, 'e) result) ->
  'a ->
  ('a, 'e) result
(** [fold_range ~off ~len f acc] walks the byte range [off, off + len)
    one block at a time: [f] gets the block's index in the file
    ([bidx]), the range's offset in that block ([boff]), the chunk's
    offset in the range ([pos]) and its length ([chunk]).  Stops at
    the first [Error]. *)

(** {1 Block buffer caches}

    Both kernels cache blocks in capacity-bounded tables of [buf],
    keyed by block number, with one eviction rule. *)

type buf = { data : bytes; mutable dirty : bool; mutable last_use : int }
(** A cached block; [last_use] is the cache's LRU clock at the last
    access. *)

val evict_lru :
  (int, buf) Hashtbl.t -> capacity:int -> write_back:(int -> bytes -> unit) ->
  unit
(** At or above [capacity] entries, remove the least recently used
    buffer, first passing it to [write_back] if it is dirty.  Below
    [capacity], do nothing. *)
