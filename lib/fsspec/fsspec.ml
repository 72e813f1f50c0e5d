type err =
  | Enoent
  | Eexist
  | Enotdir
  | Eisdir
  | Enotempty
  | Ebadf
  | Enospc
  | Einval
  | Eio

type kind = File | Dir

type stat = { kind : kind; size : int; blocks : int }

type fd = int

module type S = sig
  type t

  val mkdir : t -> string -> (unit, err) result

  val create : t -> string -> (unit, err) result

  val open_ : t -> string -> (fd, err) result

  val close : t -> fd -> (unit, err) result

  val read : t -> fd -> off:int -> len:int -> (string, err) result

  val write : t -> fd -> off:int -> string -> (int, err) result

  val stat : t -> string -> (stat, err) result

  val unlink : t -> string -> (unit, err) result

  val rename : t -> string -> string -> (unit, err) result

  val readdir : t -> string -> (string list, err) result
end

let err_to_string = function
  | Enoent -> "ENOENT"
  | Eexist -> "EEXIST"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Enotempty -> "ENOTEMPTY"
  | Ebadf -> "EBADF"
  | Enospc -> "ENOSPC"
  | Einval -> "EINVAL"
  | Eio -> "EIO"

let split_path p =
  if String.length p = 0 || p.[0] <> '/' then Error Einval
  else begin
    let parts = String.split_on_char '/' p in
    (* leading '/' yields an empty first component; a trailing '/' an
       empty last one, which we tolerate for directories *)
    let rec clean = function
      | [] -> Ok []
      | [ "" ] -> Ok []
      | "" :: _ -> Error Einval
      | c :: rest -> (
        match clean rest with Ok tl -> Ok (c :: tl) | Error e -> Error e)
    in
    match parts with
    | "" :: rest -> clean rest
    | _ -> Error Einval
  end

let split_parent p =
  match split_path p with
  | Error e -> Error e
  | Ok comps -> (
    match List.rev comps with
    | [] -> Error Einval
    | name :: rev_parents -> Ok (List.rev rev_parents, name))

(* [dst] strictly inside [src]? compares component lists *)
let path_inside ~src ~dst =
  match (split_path src, split_path dst) with
  | Ok s, Ok d ->
    let rec prefix = function
      | [], _ -> true
      | _, [] -> false
      | a :: s', b :: d' -> a = b && prefix (s', d')
    in
    prefix (s, d)
  | _ -> false

let block_size = 4096

let fold_range ~off ~len f acc =
  let rec go acc pos =
    if pos >= len then Ok acc
    else begin
      let bidx = (off + pos) / block_size in
      let boff = (off + pos) mod block_size in
      let chunk = min (block_size - boff) (len - pos) in
      match f acc ~bidx ~boff ~pos ~chunk with
      | Error e -> Error e
      | Ok acc -> go acc (pos + chunk)
    end
  in
  go acc 0

type buf = { data : bytes; mutable dirty : bool; mutable last_use : int }

let evict_lru bufs ~capacity ~write_back =
  if Hashtbl.length bufs >= capacity then
    let older blk b victim =
      match victim with
      | Some (_, v) when v.last_use <= b.last_use -> victim
      | _ -> Some (blk, b)
    in
    match Hashtbl.fold older bufs None with
    | None -> ()
    | Some (blk, b) ->
      if b.dirty then write_back blk b.data;
      Hashtbl.remove bufs blk
