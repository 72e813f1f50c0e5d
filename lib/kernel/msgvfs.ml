module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Cost = Chorus_machine.Cost
module Fsspec = Chorus_fsspec.Fsspec
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span
module Svc = Chorus_svc.Svc

type config = { plumbing : bool; dispatchers : int }

let default_config = { plumbing = true; dispatchers = 4 }

type attr = { akind : Fsspec.kind; asize : int; ablocks : int }

(* The common vnode message protocol. *)
type vreq =
  | Lookup of string
  | Make of string * Fsspec.kind
  | Remove of string
  | Detach of string
      (** remove and return the entry (first half of rename) *)
  | Attach of string * vnode * Fsspec.kind
      (** adopt a detached vnode (second half of rename) *)
  | Readdir
  | Getattr
  | Read of { off : int; len : int }
  | Write of { off : int; data : string }
  | Retire
  | Subscribe of int
      (** group [g]'s name cache asks for a copy of the directory's
          names; the copy is cast into the cache's inbox, and the
          request is never answered *)

and vresp =
  | Child of vnode * Fsspec.kind
  | Partial of vnode * Fsspec.kind * string list
      (** a name cache resolved a walk as far as this vnode; the
          components left are for direct [Lookup]s *)
  | Attr of attr
  | Data of string
  | Wrote of int
  | Names of string list
  | Done
  | Err of Fsspec.err

(* [id] names the vnode in name-cache messages; it is unique within a
   mount *)
and vnode = { ep : (vreq, vresp) Svc.t; id : int }

(* A name cache's inbox: walks from its group's callers, and from each
   directory it copies, that directory's names and then every
   invalidation of one of them *)
type cmsg =
  | Walk of string list * vresp Svc.reply
  | Table of int * (string * (vnode * Fsspec.kind)) list
      (** directory [id]'s names *)
  | Invalidate of int * string * unit Svc.reply
      (** drop a name from directory [id]'s copy, then ack *)

type sys = {
  cfg : config;
  bcache : Bcache.t;
  alloc : Cgalloc.t;
  root : vnode;
  place : Place.t;
  caches : cmsg Svc.cast array;
      (* one name cache per 16-core group; none on 16 cores or fewer *)
  disp : (unit -> unit, unit) Svc.t array;
      (* a dispatcher's request is the system call itself *)
  batches : (Metrics.counter * Metrics.counter) Lazy.t;
      (* cache messages carrying two or more forwards, and the forwards
         they carry; registered by the first such message, so a run
         that never batches registers nothing *)
  mutable spawned : int;
  mutable live : int;
  mutable placeholders : int;
  mutable hydrations : int;
  mutable hydration_failures : int;
}

(* Per-operation request-latency histograms, shared through the
   metrics registry by every client of the mount. *)
type op_hists = {
  h_mkdir : Metrics.histogram;
  h_create : Metrics.histogram;
  h_open : Metrics.histogram;
  h_read : Metrics.histogram;
  h_write : Metrics.histogram;
  h_stat : Metrics.histogram;
  h_unlink : Metrics.histogram;
  h_rename : Metrics.histogram;
  h_readdir : Metrics.histogram;
}

type t = {
  sys : sys;
  fds : (int, vnode) Hashtbl.t;
  mutable next_fd : int;
  mutable next_disp : int;
  mx : op_hists;
}

let words_of_string s = 2 + Cost.words_of_bytes (String.length s)

let reply_words = function
  | Data s -> words_of_string s
  | Names ns -> 2 + List.length ns
  | Partial (_, _, rest) -> 4 + List.length rest
  | Child _ | Attr _ | Wrote _ | Done | Err _ -> 4

let reply r resp = Svc.answer ~words:(reply_words resp) r resp

(* A projected namespace's remote side: directory listings and file
   contents by projection-relative path. *)
type projection = {
  proj_entries :
    string -> ((string * Fsspec.kind * int) list, Fsspec.err) result;
  proj_fetch : string -> (string, Fsspec.err) result;
}

(* ------------------------------------------------------------------ *)
(* File vnode                                                          *)

let file_read sys ~blocks ~size ~off ~len =
  let len = max 0 (min len (size - off)) in
  let out = Bytes.make len '\000' in
  Fsspec.fold_range ~off ~len
    (fun () ~bidx ~boff ~pos ~chunk ->
      match List.nth_opt blocks bidx with
      | None -> Ok ()
      | Some b -> (
        match Bcache.get_range sys.bcache b ~off:boff ~len:chunk with
        | data ->
          Bytes.blit_string data 0 out pos (String.length data);
          Ok ()
        | exception Blockdev.Io_error -> Error Fsspec.Eio))
    ()
  |> Result.map (fun () -> Bytes.to_string out)

(* ensure the file's [blocks] cover block index [bidx]; returns the
   block or Enospc *)
let rec ensure_block sys ~hint blocks bidx =
  match List.nth_opt !blocks bidx with
  | Some b -> Ok b
  | None -> (
    match Cgalloc.alloc sys.alloc ~hint with
    | None -> Error Fsspec.Enospc
    | Some b ->
      Bcache.zero sys.bcache b;
      blocks := !blocks @ [ b ];
      ensure_block sys ~hint blocks bidx)

(* copy [data] at [off] into the file's [blocks], allocating as needed
   (shared by writes and hydration).  A block allocated before a failure
   stays in [blocks], so the file's retirement frees it. *)
let file_write sys ~hint blocks ~off data =
  Fsspec.fold_range ~off ~len:(String.length data)
    (fun () ~bidx ~boff ~pos ~chunk ->
      Result.bind (ensure_block sys ~hint blocks bidx) (fun b ->
          match Bcache.put sys.bcache b ~off:boff (String.sub data pos chunk) with
          | () -> Ok ()
          | exception Blockdev.Io_error -> Error Fsspec.Eio))
    ()

(* The block of [blocks] that holds all of the byte range
   [off, off + len), when the range is non-empty and lies in one. *)
let one_block blocks ~off ~len =
  let bidx = off / Fsspec.block_size in
  if len > 0 && (off + len - 1) / Fsspec.block_size = bidx then
    List.nth_opt blocks bidx
  else None

(* A file vnode.  A projected file starts cold: a placeholder with a
   declared size and no blocks, until the first read or write pulls the
   contents through proj_fetch and writes them into the cache
   (attach-on-hydrate), after which it is an ordinary file.  The vnode
   fiber serializes its requests, so concurrent readers of a cold file
   queue behind one hydration and nobody ever sees a partial fill; a
   failed fetch surfaces as Err and leaves the file cold and
   retryable.

   A read of a warm file whose bytes lie in one block, and a write
   that overwrites bytes of one block without extending the file,
   change nothing here: the vnode hands them to the block's cache
   shard with the caller's reply channel, and the shard answers the
   caller (DESIGN D18).  The vnode holds these forwards and sends them,
   one message per shard, when its inbox is empty after a request, and
   before any request it serves itself, so that neither its own cache
   calls nor Retire's frees overtake them (DESIGN D20). *)
let serve_file sys self ~source =
  let hint = self.id in
  let held = Bcache.outbox () in
  let send_held () =
    List.iter
      (fun n ->
        if n >= 2 then begin
          let messages, forwards = Lazy.force sys.batches in
          Metrics.incr messages;
          for _ = 1 to n do
            Metrics.incr forwards
          done
        end)
      (Bcache.send sys.bcache held)
  in
  let blocks = ref [] in
  let size = ref 0 in
  let cold = ref source in
  let hydrate () =
    match !cold with
    | None -> Ok ()
    | Some (proj, rel, _) -> (
      match proj.proj_fetch rel with
      | Error e ->
        sys.hydration_failures <- sys.hydration_failures + 1;
        Error e
      | Ok content ->
        Result.map
          (fun () ->
            size := String.length content;
            cold := None;
            sys.placeholders <- sys.placeholders - 1;
            sys.hydrations <- sys.hydrations + 1)
          (file_write sys ~hint blocks ~off:0 content))
  in
  let forward req r =
    let answer resp_of res =
      reply r
        (match res with Ok v -> resp_of v | Error `Io_error -> Err Fsspec.Eio)
    in
    match req with
    | (Read _ | Write _) when Option.is_some !cold -> false
    | Read { off; len } -> (
      let len = min len (!size - off) in
      match one_block !blocks ~off ~len with
      | None -> false
      | Some b ->
        Bcache.get_range_to sys.bcache held b
          ~off:(off mod Fsspec.block_size) ~len
          (answer (fun d -> Data d));
        true)
    | Write { off; data } -> (
      let len = String.length data in
      match one_block !blocks ~off ~len with
      | Some b when off + len <= !size ->
        Bcache.put_to sys.bcache held b ~off:(off mod Fsspec.block_size) data
          (answer (fun () -> Wrote len));
        true
      | _ -> false)
    | _ -> false
  in
  let handle = function
    | Getattr -> (
      match !cold with
      | Some (_, _, declared) ->
        Attr { akind = Fsspec.File; asize = declared; ablocks = 0 }
      | None ->
        Attr { akind = Fsspec.File; asize = !size;
               ablocks = List.length !blocks })
    | Read { off; len } -> (
      match
        Result.bind (hydrate ()) (fun () ->
            file_read sys ~blocks:!blocks ~size:!size ~off ~len)
      with
      | Error e -> Err e
      | Ok d -> Data d)
    | Write { off; data } -> (
      (* copy-up before write: the projected bytes are the base *)
      match
        Result.bind (hydrate ()) (fun () ->
            file_write sys ~hint blocks ~off data)
      with
      | Error e -> Err e
      | Ok () ->
        let len = String.length data in
        if off + len > !size then size := off + len;
        Wrote len)
    | Retire ->
      List.iter (Cgalloc.free sys.alloc) !blocks;
      blocks := [];
      if Option.is_some !cold then sys.placeholders <- sys.placeholders - 1;
      sys.live <- sys.live - 1;
      Done
    | Lookup _ | Make _ | Remove _ | Detach _ | Attach _ | Readdir
    | Subscribe _ ->
      Err Fsspec.Enotdir
  in
  Svc.serve_forwarding
    ~until:(function Retire -> true | _ -> false)
    self.ep
    (fun req r ->
      if not (forward req r) then begin
        send_held ();
        reply r (handle req)
      end;
      if Svc.depth self.ep = 0 then send_held ())

(* ------------------------------------------------------------------ *)
(* Directory vnode                                                     *)

(* The kernel places vnode [id] itself (DESIGN D22). *)
let vnode_core sys id =
  Place.vnode sys.place ~shards:(Bcache.shards sys.bcache) (id - 1)

(* A directory vnode.  A projected directory lists its entries through
   proj_entries on first use (errors retry on the next request) and
   spawns a child vnode on the first Lookup of each projected name.
   Local entries coexist with the projected names; the projected names
   themselves are immutable from this side, and the projection is
   permanent (its namespace is remote), so its fiber never retires.

   A directory also knows which groups' name caches hold each local
   name (DESIGN D19).  [Subscribe g] casts the names to group [g]'s
   cache, which then holds every one of them.  [Remove] and [Detach]
   first invalidate the name at every group that holds it: all the
   invalidations are sent, then every ack is awaited, and only then is
   the child retired and the name dropped.  A cache never learns a new
   name, so [Make] and [Attach] send nothing.  A cache never waits, so
   the acked invalidations cannot deadlock. *)
let rec serve_dir sys self ~source =
  let local : (string, vnode * Fsspec.kind) Hashtbl.t = Hashtbl.create 8 in
  (* the groups whose cache holds each local name *)
  let held : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let invalidate name =
    match Hashtbl.find_opt held name with
    | None -> ()
    | Some groups ->
      Hashtbl.remove held name;
      List.map
        (fun g ->
          let ack = Svc.reply_chan () in
          Svc.cast sys.caches.(g) (Invalidate (self.id, name, ack));
          ack)
        groups
      |> List.iter Svc.await
  in
  let retired = ref false in
  (* projected names not yet looked up, with their child's source *)
  let pending = Hashtbl.create 8 in
  let projected : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let unlisted = ref source in
  let enumerate () =
    match !unlisted with
    | None -> Ok ()
    | Some (proj, rel) -> (
      match proj.proj_entries rel with
      | Error e -> Error e
      | Ok entries ->
        List.iter
          (fun (name, kind, size) ->
            Hashtbl.replace projected name ();
            if not (Hashtbl.mem local name) then
              let child_rel = if rel = "" then name else rel ^ "/" ^ name in
              Hashtbl.replace pending name (kind, (proj, child_rel, size)))
          entries;
        unlisted := None;
        Ok ())
  in
  let taken name = Hashtbl.mem local name || Hashtbl.mem pending name in
  let listed f = match enumerate () with Error e -> Err e | Ok () -> f () in
  (* group [g]'s cache gets the names in its inbox, and holds them all *)
  let subscribe g =
    let names = Hashtbl.fold (fun k e acc -> (k, e) :: acc) local [] in
    List.iter
      (fun (k, _) ->
        Hashtbl.replace held k
          (g :: Option.value ~default:[] (Hashtbl.find_opt held k)))
      names;
    Svc.cast ~words:(2 + (2 * List.length names)) sys.caches.(g)
      (Table (self.id, names))
  in
  let handle = function
    | Getattr ->
      listed @@ fun () ->
      Attr { akind = Fsspec.Dir;
             asize = Hashtbl.length local + Hashtbl.length pending;
             ablocks = 0 }
    | Lookup name -> (
      listed @@ fun () ->
      match Hashtbl.find_opt local name with
      | Some (v, k) -> Child (v, k)
      | None -> (
        match Hashtbl.find_opt pending name with
        | None -> Err Fsspec.Enoent
        | Some (kind, child) ->
          let v = spawn_vnode sys kind ~source:(Some child) in
          Hashtbl.remove pending name;
          Hashtbl.replace local name (v, kind);
          Child (v, kind)))
    | Make (name, kind) ->
      listed @@ fun () ->
      if taken name then Err Fsspec.Eexist
      else begin
        let child = spawn_vnode sys kind ~source:None in
        Hashtbl.replace local name (child, kind);
        Child (child, kind)
      end
    | Detach name -> (
      listed @@ fun () ->
      if Hashtbl.mem projected name then Err Fsspec.Einval
      else
        match Hashtbl.find_opt local name with
        | None -> Err Fsspec.Enoent
        | Some (v, kind) ->
          invalidate name;
          Hashtbl.remove local name;
          Child (v, kind))
    | Attach (name, v, kind) ->
      listed @@ fun () ->
      if taken name then Err Fsspec.Eexist
      else begin
        Hashtbl.replace local name (v, kind);
        Done
      end
    | Remove name -> (
      listed @@ fun () ->
      if Hashtbl.mem projected name then Err Fsspec.Einval
      else
        match Hashtbl.find_opt local name with
        | None -> Err Fsspec.Enoent
        | Some (v, kind) -> (
          (* directories must be empty; ask the child *)
          let empty_ok =
            match kind with
            | Fsspec.File -> Ok ()
            | Fsspec.Dir -> (
              match Svc.call v.ep Getattr with
              | Attr a when a.asize = 0 -> Ok ()
              | Attr _ -> Error Fsspec.Enotempty
              | _ -> Error Fsspec.Einval)
          in
          match empty_ok with
          | Error e -> Err e
          | Ok () -> (
            invalidate name;
            match Svc.call v.ep Retire with
            | Done ->
              Hashtbl.remove local name;
              Done
            | _ -> Err Fsspec.Einval)))
    | Readdir ->
      listed @@ fun () ->
      let names =
        Hashtbl.fold (fun k _ acc -> k :: acc) local
          (Hashtbl.fold (fun k _ acc -> k :: acc) pending [])
      in
      Names (List.sort compare names)
    | Retire ->
      if Option.is_some source then Err Fsspec.Einval
      else if Hashtbl.length local > 0 then Err Fsspec.Enotempty
      else begin
        sys.live <- sys.live - 1;
        retired := true;
        Done
      end
    | Read _ | Write _ -> Err Fsspec.Eisdir
    | Subscribe _ -> assert false
  in
  Svc.serve_forwarding ~until:(fun _ -> !retired) self.ep (fun req r ->
      match req with
      | Subscribe g -> subscribe g
      | _ -> reply r (handle req))

(* [source] is [Some (projection, rel, declared size)] for a projected
   vnode; a directory ignores the size. *)
and spawn_vnode sys kind ~source =
  sys.spawned <- sys.spawned + 1;
  sys.live <- sys.live + 1;
  let self =
    { ep =
        Svc.create ~subsystem:"msgvfs" ~metric_name:"vnode" ~label:"vnode" ();
      id = sys.spawned }
  in
  let body =
    match kind with
    | Fsspec.File ->
      if Option.is_some source then sys.placeholders <- sys.placeholders + 1;
      fun () -> serve_file sys self ~source
    | Fsspec.Dir ->
      let source = Option.map (fun (proj, rel, _) -> (proj, rel)) source in
      fun () -> serve_dir sys self ~source
  in
  let label =
    Printf.sprintf "%s%s-vnode-%d"
      (if Option.is_some source then "proj-" else "")
      (match kind with Fsspec.File -> "file" | Fsspec.Dir -> "dir")
      self.id
  in
  ignore (Fiber.spawn ~on:(vnode_core sys self.id) ~label ~daemon:true body);
  self

(* ------------------------------------------------------------------ *)
(* Name caches (DESIGN D19)                                            *)

(* A cache's copy of one directory's names *)
type copy =
  | Filling of (unit -> unit) list
      (** subscribed: the walks waiting for the names, newest first *)
  | Held of (string, vnode * Fsspec.kind) Hashtbl.t

(* The name cache of core group [g].  The first walk through a
   directory subscribes to it and waits here, with every later walk
   through it, until the directory's names arrive.  From then on the
   cache answers from its copies: [Child] when it resolves the whole
   path, or [Partial] where a copy lacks the next name (made since the
   copy, or never there) or the path goes on through a file.  A copy
   never learns a new name; it loses one when the directory
   invalidates it, and acks.  The names and every later invalidation
   come from the directory's fiber into this one inbox, so they arrive
   in order; and the cache never waits. *)
let serve_cache sys g =
  let copies : (int, copy) Hashtbl.t = Hashtbl.create 16 in
  let counter name = Metrics.counter ~subsystem:"msgvfs" ("cache." ^ name) in
  let whole = counter "walks_whole" and partial = counter "walks_partial" in
  let subscriptions = counter "subscriptions"
  and invalidations = counter "invalidations" in
  let answer c r resp =
    Metrics.incr c;
    reply r resp
  in
  (* resolve [name :: rest] from directory [dir] *)
  let rec walk dir name rest r =
    let wait ws = Filling ((fun () -> walk dir name rest r) :: ws) in
    match Hashtbl.find_opt copies dir.id with
    | None ->
      Metrics.incr subscriptions;
      Hashtbl.replace copies dir.id (wait []);
      Svc.cast dir.ep (Subscribe g, Svc.reply_chan ())
    | Some (Filling ws) -> Hashtbl.replace copies dir.id (wait ws)
    | Some (Held names) -> (
      match (Hashtbl.find_opt names name, rest) with
      | None, _ -> answer partial r (Partial (dir, Fsspec.Dir, name :: rest))
      | Some (v, k), [] -> answer whole r (Child (v, k))
      | Some (v, Fsspec.Dir), next :: rest -> walk v next rest r
      | Some (v, Fsspec.File), _ ->
        answer partial r (Partial (v, Fsspec.File, rest)))
  in
  function
  | Walk ([], r) -> answer whole r (Child (sys.root, Fsspec.Dir))
  | Walk (name :: rest, r) -> walk sys.root name rest r
  | Table (id, entries) -> (
    match Hashtbl.find_opt copies id with
    | Some (Filling ws) ->
      Hashtbl.replace copies id (Held (Hashtbl.of_seq (List.to_seq entries)));
      List.iter (fun resume -> resume ()) (List.rev ws)
    | _ -> assert false)
  | Invalidate (id, name, ack) ->
    Metrics.incr invalidations;
    (match Hashtbl.find_opt copies id with
    | Some (Held names) -> Hashtbl.remove names name
    | _ -> assert false);
    Svc.answer ack ()

(* ------------------------------------------------------------------ *)
(* Vnode calls and path walking (chain of Lookup messages down the
   tree)                                                               *)

(* Call vnode [v] and keep the reply [take] accepts: an [Err] reply is
   its error, a reply [take] refuses is [Einval], and a vnode that
   closed mid-call is [closed]. *)
let ask ?(closed = Fsspec.Enoent) ?words v req take =
  match Svc.call ?words v.ep req with
  | Err e -> Error e
  | resp -> Option.to_result ~none:Fsspec.Einval (take resp)
  | exception Chan.Closed -> Error closed

let child = function Child (v, k) -> Some (v, k) | _ -> None

let is_done = function Done -> Some () | _ -> None

(* Resolve [comps] from the root: in one message to the name cache of
   the caller's core group, when the machine has caches, then by direct
   [Lookup]s from wherever the cache stopped.  Under [~parents] every
   component must be a directory, and a file stops the walk with
   [Enotdir]; otherwise the walk asks the file, which answers it. *)
let resolve_from_root ~parents sys comps =
  let rec lookups cur kind = function
    | [] -> Ok (cur, kind)
    | _ :: _ when parents && kind = Fsspec.File -> Error Fsspec.Enotdir
    | name :: rest ->
      Result.bind (ask cur (Lookup name) child) (fun (v, k) ->
          lookups v k rest)
  in
  let groups = Array.length sys.caches in
  if groups = 0 then lookups sys.root Fsspec.Dir comps
  else begin
    let r = Svc.reply_chan () in
    Svc.cast
      sys.caches.(Place.group sys.place (Fiber.core (Fiber.self ())))
      (Walk (comps, r));
    match Svc.await r with
    | Child (v, k) -> Ok (v, k)
    | Partial (v, k, rest) -> lookups v k rest
    | _ -> Error Fsspec.Einval
  end

let walk sys path =
  match Fsspec.split_path path with
  | Error e -> Error e
  | Ok [] -> Ok (sys.root, Fsspec.Dir)
  | Ok comps -> resolve_from_root ~parents:false sys comps

let walk_parent sys path =
  match Fsspec.split_parent path with
  | Error e -> Error e
  | Ok ([], name) -> Ok (sys.root, name)
  | Ok (parents, name) -> (
    match resolve_from_root ~parents:true sys parents with
    | Ok (v, Fsspec.Dir) -> Ok (v, name)
    | Ok (_, Fsspec.File) -> Error Fsspec.Enotdir
    | Error e -> Error e)

let project sys ~at proj =
  match walk_parent sys at with
  | Error e -> Error e
  | Ok (dir, name) ->
    let v = spawn_vnode sys Fsspec.Dir ~source:(Some (proj, "", 0)) in
    ask dir (Attach (name, v, Fsspec.Dir)) is_done

let stat_of_attr a =
  { Fsspec.kind = a.akind; size = a.asize; blocks = a.ablocks }

(* The full operations, as performed by whoever walks (client under
   plumbing, dispatcher otherwise). *)
let do_make sys path kind =
  match walk_parent sys path with
  | Error e -> Error e
  | Ok (dir, name) ->
    Result.map ignore (ask dir (Make (name, kind)) child)

let do_open sys path =
  match walk sys path with
  | Error e -> Error e
  | Ok (_, Fsspec.Dir) -> Error Fsspec.Eisdir
  | Ok (v, Fsspec.File) -> Ok v

let do_read v ~off ~len =
  ask ~closed:Fsspec.Ebadf ~words:6 v (Read { off; len })
    (function Data d -> Some d | _ -> None)

let do_write v ~off data =
  ask ~closed:Fsspec.Ebadf ~words:(4 + words_of_string data) v
    (Write { off; data })
    (function Wrote n -> Some n | _ -> None)

let do_stat sys path =
  match walk sys path with
  | Error e -> Error e
  | Ok (v, _) ->
    ask v Getattr (function Attr a -> Some (stat_of_attr a) | _ -> None)

let do_unlink sys path =
  match walk_parent sys path with
  | Error e -> Error e
  | Ok (dir, name) -> ask dir (Remove name) is_done

(* Rename is a two-message protocol between autonomous directory
   vnodes: detach from the source, attach at the destination,
   reattaching at the source if the destination name is taken.  The
   window in which the child hangs off neither directory is invisible
   to other clients only insofar as they address entries by name; a
   concurrent lookup sees Enoent — acceptable rename semantics for a
   kernel without a global lock to hide behind, and symmetric with the
   lock kernel's two-lock window. *)
let do_rename sys src dst =
  if Fsspec.path_inside ~src ~dst then Error Fsspec.Einval
  else
    match walk_parent sys src with
    | Error e -> Error e
    | Ok (sdir, sname) -> (
      (* source must exist before we resolve the destination (error
         precedence matches the reference model) *)
      match ask sdir (Lookup sname) child with
      | Error e -> Error e
      | Ok _ -> (
        match walk_parent sys dst with
        | Error e -> Error e
        | Ok (ddir, dname) -> (
          match ask sdir (Detach sname) child with
          | Error e -> Error e
          | Ok (v, kind) -> (
            (* not [ask]: an [Err] from the destination must be told
               apart from a closed or confused vnode, and any failed
               reattach is [Einval] *)
            try
              match Svc.call ddir.ep (Attach (dname, v, kind)) with
              | Done -> Ok ()
              | Err e -> (
                (* put it back where it came from *)
                match Svc.call sdir.ep (Attach (sname, v, kind)) with
                | Done -> Error e
                | _ -> Error Fsspec.Einval)
              | _ -> Error Fsspec.Einval
            with Chan.Closed -> Error Fsspec.Enoent))))

let do_readdir sys path =
  match walk sys path with
  | Error e -> Error e
  | Ok (v, _) -> ask v Readdir (function Names ns -> Some ns | _ -> None)

(* ------------------------------------------------------------------ *)

let mount cfg ~bcache ~alloc =
  let root =
    { ep =
        Svc.create ~subsystem:"msgvfs" ~metric_name:"vnode"
          ~label:"root-vnode" ();
      id = 1 }
  in
  let disp =
    Array.init
      (if cfg.plumbing then 0 else max 1 cfg.dispatchers)
      (fun i ->
        Svc.create ~subsystem:"msgvfs" ~metric_name:"dispatcher"
          ~label:(Printf.sprintf "syscall-%d" i) ())
  in
  let place = Place.current () in
  let caches =
    Array.init (Place.groups place) (fun g ->
        Svc.cast_create ~subsystem:"msgvfs" ~metric_name:"cache"
          ~label:(Printf.sprintf "name-cache-%d" g) ())
  in
  let batches =
    lazy
      (let counter name =
         Metrics.counter ~subsystem:"msgvfs" ("batch." ^ name)
       in
       (counter "messages", counter "forwards"))
  in
  let sys =
    { cfg; bcache; alloc; root; place; caches; disp; batches; spawned = 1;
      live = 1; placeholders = 0; hydrations = 0; hydration_failures = 0 }
  in
  ignore
    (Fiber.spawn ~on:(vnode_core sys root.id) ~label:"root-vnode"
       ~daemon:true (fun () -> serve_dir sys root ~source:None));
  Array.iteri
    (fun g ep ->
      ignore (Svc.start_cast ~on:(Place.cache place g) ep (serve_cache sys g)))
    caches;
  (* the conservative, non-plumbed syscall entry: each dispatcher runs
     the system calls sent to it *)
  Array.iter (fun ep -> ignore (Svc.start ep (fun syscall -> syscall ()))) disp;
  sys

let client sys =
  let h name = Metrics.histogram ~subsystem:"msgvfs" name in
  { sys; fds = Hashtbl.create 16; next_fd = 3; next_disp = 0;
    mx =
      { h_mkdir = h "mkdir"; h_create = h "create"; h_open = h "open";
        h_read = h "read"; h_write = h "write"; h_stat = h "stat";
        h_unlink = h "unlink"; h_rename = h "rename";
        h_readdir = h "readdir" } }

(* Run system call [f]: in the client under plumbing, otherwise as the
   request to the next dispatcher in turn, which runs it. *)
let syscall t f =
  if t.sys.cfg.plumbing then f t.sys
  else begin
    let d = t.sys.disp.(t.next_disp) in
    t.next_disp <- (t.next_disp + 1) mod Array.length t.sys.disp;
    let result = ref None in
    Svc.call d (fun () -> result := Some (f t.sys));
    Option.get !result
  end

let timed name h f = Span.timed ~subsystem:"msgvfs" ~name h f

let mkdir t path =
  timed "mkdir" t.mx.h_mkdir @@ fun () ->
  syscall t (fun sys -> do_make sys path Fsspec.Dir)

let create t path =
  timed "create" t.mx.h_create @@ fun () ->
  syscall t (fun sys -> do_make sys path Fsspec.File)

let install_fd t v =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd v;
  fd

let open_ t path =
  timed "open" t.mx.h_open @@ fun () ->
  Result.map (install_fd t) (syscall t (fun sys -> do_open sys path))

type handle = vnode

let resolve t path =
  timed "open" t.mx.h_open @@ fun () -> do_open t.sys path

let open_handle t v = install_fd t v

let close t fd =
  if Hashtbl.mem t.fds fd then begin
    Hashtbl.remove t.fds fd;
    Ok ()
  end
  else Error Fsspec.Ebadf

let fd_vnode t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some v -> Ok v
  | None -> Error Fsspec.Ebadf

(* A bad offset is Einval whatever the descriptor (Fsspec.S), so it is
   checked here, before the descriptor and without a vnode call. *)
let read t fd ~off ~len =
  timed "read" t.mx.h_read @@ fun () ->
  if off < 0 || len < 0 then Error Fsspec.Einval
  else
    Result.bind (fd_vnode t fd) (fun v ->
        syscall t (fun _ -> do_read v ~off ~len))

let write t fd ~off data =
  timed "write" t.mx.h_write @@ fun () ->
  if off < 0 then Error Fsspec.Einval
  else
    Result.bind (fd_vnode t fd) (fun v ->
        syscall t (fun _ -> do_write v ~off data))

let stat t path =
  timed "stat" t.mx.h_stat @@ fun () ->
  syscall t (fun sys -> do_stat sys path)

let unlink t path =
  timed "unlink" t.mx.h_unlink @@ fun () ->
  syscall t (fun sys -> do_unlink sys path)

let rename t src dst =
  timed "rename" t.mx.h_rename @@ fun () ->
  syscall t (fun sys -> do_rename sys src dst)

let readdir t path =
  timed "readdir" t.mx.h_readdir @@ fun () ->
  syscall t (fun sys -> do_readdir sys path)

let vnodes_spawned sys = sys.spawned

let caches sys = Array.length sys.caches

let live_vnodes sys = sys.live

let placeholders_live sys = sys.placeholders

let hydrations sys = sys.hydrations

let hydration_failures sys = sys.hydration_failures
