module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine
module Machine = Chorus_machine.Machine
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
  | Subscribe of vnode
      (** a replica asks for the whole name table and every later
          change *)
  | Push of string * (vnode * Fsspec.kind) option
      (** a changed entry, [None] when the name is gone *)

and vresp =
  | Child of vnode * Fsspec.kind
  | Attr of attr
  | Data of string
  | Wrote of int
  | Names of string list
  | Table of (string * (vnode * Fsspec.kind)) list
  | Done
  | Err of Fsspec.err

and vnode = (vreq, vresp) Svc.t

type sys = {
  cfg : config;
  bcache : Bcache.t;
  alloc : Cgalloc.t;
  root : vnode;
  cores : int;
  mutable replicas : vnode array;
      (* one per core group: the group's replica of the root's name
         table, or the root itself in the root's own group *)
  disp : (unit -> unit, unit) Svc.t array;
      (* a dispatcher's request is the system call itself *)
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
  | Table es -> 2 + (2 * List.length es)
  | Child _ | Attr _ | Wrote _ | Done | Err _ -> 4

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
      (match List.nth_opt blocks bidx with
      | Some b ->
        let data = Bcache.get_range sys.bcache b ~off:boff ~len:chunk in
        Bytes.blit_string data 0 out pos (String.length data)
      | None -> ());
      Ok ())
    ()
  |> Result.map (fun () -> Bytes.to_string out)

(* ensure the file covers block index [bidx]; returns updated block
   list or Enospc *)
let rec ensure_block sys ~hint blocks bidx =
  match List.nth_opt blocks bidx with
  | Some b -> Ok (blocks, b)
  | None -> (
    match Cgalloc.alloc sys.alloc ~hint with
    | None -> Error Fsspec.Enospc
    | Some b ->
      Bcache.zero sys.bcache b;
      ensure_block sys ~hint (blocks @ [ b ]) bidx)

(* copy [data] at [off] into the block list, allocating as needed;
   returns the updated list (shared by writes and hydration) *)
let file_write sys ~hint blocks ~off data =
  Fsspec.fold_range ~off ~len:(String.length data)
    (fun blocks ~bidx ~boff ~pos ~chunk ->
      match ensure_block sys ~hint blocks bidx with
      | Error e -> Error e
      | Ok (blocks, b) ->
        Bcache.put sys.bcache b ~off:boff (String.sub data pos chunk);
        Ok blocks)
    blocks

(* A file vnode.  A projected file starts cold: a placeholder with a
   declared size and no blocks, until the first read or write pulls the
   contents through proj_fetch and writes them into the cache
   (attach-on-hydrate), after which it is an ordinary file.  The vnode
   fiber serializes its requests, so concurrent readers of a cold file
   queue behind one hydration and nobody ever sees a partial fill; a
   failed fetch surfaces as Err and leaves the file cold and
   retryable. *)
let serve_file sys ep ~hint ~source =
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
      | Ok content -> (
        match file_write sys ~hint [] ~off:0 content with
        | Error e -> Error e
        | Ok blocks' ->
          blocks := blocks';
          size := String.length content;
          cold := None;
          sys.placeholders <- sys.placeholders - 1;
          sys.hydrations <- sys.hydrations + 1;
          Ok ()))
  in
  Svc.serve ~words_of_resp:reply_words
    ~until:(fun req _ -> match req with Retire -> true | _ -> false)
    ep
    (fun req ->
      match req with
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
              file_write sys ~hint !blocks ~off data)
        with
        | Error e -> Err e
        | Ok blocks' ->
          blocks := blocks';
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
      | Push _ -> Err Fsspec.Einval)

(* ------------------------------------------------------------------ *)
(* Directory vnode                                                     *)

(* A directory vnode.  A projected directory lists its entries through
   proj_entries on first use (errors retry on the next request) and
   spawns a child vnode on the first Lookup of each projected name.
   Local entries coexist with the projected names; the projected names
   themselves are immutable from this side, and the projection is
   permanent (its namespace is remote), so its fiber never retires.

   A directory also keeps the replicas subscribed to its local names
   (only the root has any).  Each change to a local name is pushed to
   every subscriber, and acked, before the request that made it is
   answered; a subscriber never calls back, so the pushes cannot
   deadlock. *)
let rec serve_dir sys ep ~source =
  let local : (string, vnode * Fsspec.kind) Hashtbl.t = Hashtbl.create 8 in
  let subscribers = ref [] in
  let set name entry =
    (match entry with
    | Some e -> Hashtbl.replace local name e
    | None -> Hashtbl.remove local name);
    List.iter
      (fun r ->
        match Svc.call r (Push (name, entry)) with
        | Done -> ()
        | _ -> assert false)
      !subscribers
  in
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
  Svc.serve ~words_of_resp:reply_words
    ~until:(fun req resp ->
      match (req, resp) with Retire, Done -> true | _ -> false)
    ep
    (fun req ->
      match req with
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
          set name (Some (child, kind));
          Child (child, kind)
        end
      | Detach name -> (
        listed @@ fun () ->
        if Hashtbl.mem projected name then Err Fsspec.Einval
        else
          match Hashtbl.find_opt local name with
          | None -> Err Fsspec.Enoent
          | Some (v, kind) ->
            set name None;
            Child (v, kind))
      | Attach (name, v, kind) ->
        listed @@ fun () ->
        if taken name then Err Fsspec.Eexist
        else begin
          set name (Some (v, kind));
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
                match Svc.call v Getattr with
                | Attr a when a.asize = 0 -> Ok ()
                | Attr _ -> Error Fsspec.Enotempty
                | _ -> Error Fsspec.Einval)
            in
            match empty_ok with
            | Error e -> Err e
            | Ok () -> (
              match Svc.call v Retire with
              | Done ->
                set name None;
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
          Done
        end
      | Subscribe r ->
        subscribers := !subscribers @ [ r ];
        Table (Hashtbl.fold (fun k e acc -> (k, e) :: acc) local [])
      | Read _ | Write _ -> Err Fsspec.Eisdir
      | Push _ -> Err Fsspec.Einval)

(* [source] is [Some (projection, rel, declared size)] for a projected
   vnode; a directory ignores the size. *)
and spawn_vnode sys kind ~source =
  let ep =
    Svc.create ~subsystem:"msgvfs" ~metric_name:"vnode" ~label:"vnode" ()
  in
  sys.spawned <- sys.spawned + 1;
  sys.live <- sys.live + 1;
  let hint = sys.spawned in
  let body =
    match kind with
    | Fsspec.File ->
      if Option.is_some source then sys.placeholders <- sys.placeholders + 1;
      fun () -> serve_file sys ep ~hint ~source
    | Fsspec.Dir ->
      let source = Option.map (fun (proj, rel, _) -> (proj, rel)) source in
      fun () -> serve_dir sys ep ~source
  in
  let label =
    Printf.sprintf "%s%s-vnode-%d"
      (if Option.is_some source then "proj-" else "")
      (match kind with Fsspec.File -> "file" | Fsspec.Dir -> "dir")
      hint
  in
  ignore (Fiber.spawn ~label ~daemon:true body);
  ep

(* A replica of the root's name table, serving [Lookup] for the callers
   of one core group.  It subscribes to the root on its first request,
   and from then on only answers: lookups from its table, pushes from
   the root by changing it. *)
let serve_replica sys ep =
  let table = Hashtbl.create 16 in
  let subscribed = ref false in
  fun req ->
    match req with
    | Lookup name -> (
      if not !subscribed then begin
        (match Svc.call sys.root (Subscribe ep) with
        | Table es -> List.iter (fun (k, e) -> Hashtbl.replace table k e) es
        | _ -> assert false);
        subscribed := true
      end;
      match Hashtbl.find_opt table name with
      | Some (v, k) -> Child (v, k)
      | None -> Err Fsspec.Enoent)
    | Push (name, entry) ->
      (match entry with
      | Some e -> Hashtbl.replace table name e
      | None -> Hashtbl.remove table name);
      Done
    | _ -> Err Fsspec.Einval

(* ------------------------------------------------------------------ *)
(* Vnode calls and path walking (chain of Lookup messages down the
   tree)                                                               *)

(* Call vnode [v] and keep the reply [take] accepts: an [Err] reply is
   its error, a reply [take] refuses is [Einval], and a vnode that
   closed mid-call is [closed]. *)
let ask ?(closed = Fsspec.Enoent) ?words v req take =
  match Svc.call ?words v req with
  | Err e -> Error e
  | resp -> Option.to_result ~none:Fsspec.Einval (take resp)
  | exception Chan.Closed -> Error closed

let child = function Child (v, k) -> Some (v, k) | _ -> None

let is_done = function Done -> Some () | _ -> None

(* Where a walk sends its first [Lookup]: the root's replica in the
   caller's core group. *)
let first_hop sys =
  let groups = Array.length sys.replicas in
  sys.replicas.(Fiber.core (Fiber.self ()) * groups / sys.cores)

let walk sys path =
  match Fsspec.split_path path with
  | Error e -> Error e
  | Ok [] -> Ok (sys.root, Fsspec.Dir)
  | Ok comps ->
    let rec go cur kind = function
      | [] -> Ok (cur, kind)
      | name :: rest ->
        Result.bind (ask cur (Lookup name) child) (fun (v, k) -> go v k rest)
    in
    go (first_hop sys) Fsspec.Dir comps

let walk_parent sys path =
  match Fsspec.split_parent path with
  | Error e -> Error e
  | Ok ([], name) -> Ok (sys.root, name)
  | Ok (parents, name) ->
    let rec go cur = function
      | [] -> Ok (cur, name)
      | n :: rest -> (
        match ask cur (Lookup n) child with
        | Ok (v, Fsspec.Dir) -> go v rest
        | Ok (_, Fsspec.File) -> Error Fsspec.Enotdir
        | Error e -> Error e)
    in
    go (first_hop sys) parents

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
              match Svc.call ddir (Attach (dname, v, kind)) with
              | Done -> Ok ()
              | Err e -> (
                (* put it back where it came from *)
                match Svc.call sdir (Attach (sname, v, kind)) with
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
    Svc.create ~subsystem:"msgvfs" ~metric_name:"vnode" ~label:"root-vnode" ()
  in
  let disp =
    Array.init
      (if cfg.plumbing then 0 else max 1 cfg.dispatchers)
      (fun i ->
        Svc.create ~subsystem:"msgvfs" ~metric_name:"dispatcher"
          ~label:(Printf.sprintf "syscall-%d" i) ())
  in
  let cores = Machine.cores (Engine.machine (Engine.current ())) in
  let sys =
    { cfg; bcache; alloc; root; cores; replicas = [| root |]; disp;
      spawned = 1; live = 1; placeholders = 0; hydrations = 0;
      hydration_failures = 0 }
  in
  let root_fiber =
    Fiber.spawn ~label:"root-vnode" ~daemon:true (fun () ->
        serve_dir sys root ~source:None)
  in
  (* one core group per 16 cores; the root serves its own group and
     every other group gets a replica on the group's first core *)
  let groups = max 1 (cores / 16) in
  let home = Fiber.core root_fiber * groups / cores in
  sys.replicas <-
    Array.init groups (fun g ->
        if g = home then root
        else begin
          let ep =
            Svc.create ~subsystem:"msgvfs" ~metric_name:"replica"
              ~label:(Printf.sprintf "root-replica-%d" g) ()
          in
          ignore
            (Svc.start ~on:(((g * cores) + groups - 1) / groups)
               ~words_of_resp:reply_words ep (serve_replica sys ep));
          ep
        end);
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

let replicas sys = Array.length sys.replicas - 1

let live_vnodes sys = sys.live

let placeholders_live sys = sys.placeholders

let hydrations sys = sys.hydrations

let hydration_failures sys = sys.hydration_failures
