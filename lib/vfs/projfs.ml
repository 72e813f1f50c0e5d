module Fiber = Chorus.Fiber
module Inspect = Chorus.Inspect
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span
module Svc = Chorus_svc.Svc
module Stack = Chorus_net.Stack
module Fsspec = Chorus_fsspec.Fsspec
module Msgvfs = Chorus_kernel.Msgvfs
module Cost = Chorus_machine.Cost

type t = {
  sys : Msgvfs.sys;
  at : string;
  cache : Msgvfs.handle Namecache.t;
  hyd : (string, (string, Fsspec.err) result) Svc.t;
  pf : string Svc.cast;
  mutable pf_queued : int;
  mutable pf_done : int;
  mutable pf_dropped : int;
  h_hydrate : Metrics.histogram;
}

(* ------------------------------------------------------------------ *)
(* Wire adapter: the projection closures Msgvfs calls                  *)

(* One provider request: the payload of a "D" reply, Enoent for any
   other reply, Eio when every retransmission timed out. *)
let ask_provider stack ~provider req =
  match Stack.call stack ~dst:provider ~port:Provider.port req with
  | None -> Error Fsspec.Eio
  | Some resp ->
    if String.length resp >= 1 && resp.[0] = 'D' then
      Ok (String.sub resp 1 (String.length resp - 1))
    else Error Fsspec.Enoent

(* ------------------------------------------------------------------ *)

let register_inspect t =
  Inspect.register ~name:"projfs/namecache" (fun () ->
      let c = t.cache in
      Inspect.Assoc
        ([ ("entries", Inspect.Int (Namecache.length c));
           ("hits", Inspect.Int (Namecache.hits c));
           ("misses", Inspect.Int (Namecache.misses c));
           ("negative_hits", Inspect.Int (Namecache.negative_hits c));
           ("evictions", Inspect.Int (Namecache.evictions c));
           ("invalidations", Inspect.Int (Namecache.invalidations c)) ]
        @ List.map
            (fun (st, n) -> (Namecache.state_name st, Inspect.Int n))
            (Namecache.state_counts c)));
  Inspect.register ~name:"projfs/hydration" (fun () ->
      Inspect.Assoc
        [ ("placeholders_live", Inspect.Int (Msgvfs.placeholders_live t.sys));
          ("hydrations", Inspect.Int (Msgvfs.hydrations t.sys));
          ("hydration_failures",
           Inspect.Int (Msgvfs.hydration_failures t.sys));
          ("prefetch_queued", Inspect.Int t.pf_queued);
          ("prefetch_done", Inspect.Int t.pf_done);
          ("prefetch_dropped", Inspect.Int t.pf_dropped) ])

let mount ?hydration ?(workers = 4) ?(namecache = 512) ~fs ~at ~stack
    ~provider () =
  let h_hydrate = Metrics.histogram ~subsystem:"projfs" "hydrate" in
  let hyd : (string, (string, Fsspec.err) result) Svc.t =
    Svc.create ?config:hydration ~subsystem:"projfs" ~label:"hydrate" ()
  in
  let t_ref = ref None in
  let pf : string Svc.cast =
    Svc.cast_create ~config:(Svc.config ~capacity:64 ~policy:`Shed_oldest ())
      ~on_shed:(fun _ ->
        match !t_ref with
        | Some t -> t.pf_dropped <- t.pf_dropped + 1
        | None -> ())
      ~subsystem:"projfs" ~label:"prefetch" ()
  in
  let t =
    { sys = fs; at; cache = Namecache.create ~cap:namecache ();
      hyd; pf; pf_queued = 0; pf_done = 0; pf_dropped = 0; h_hydrate }
  in
  t_ref := Some t;
  (* every placeholder fill funnels through the bounded endpoint; a
     rejected or shed fill answers `Busy, which the vnode-side closure
     turns into a clean, retryable Eio *)
  let proj_fetch rel =
    match Svc.call_result t.hyd rel with
    | `Ok r -> r
    | `Busy -> Error Fsspec.Eio
  in
  let proj_entries rel =
    let req = if String.equal rel "" then "L" else "L " ^ rel in
    Result.map Provider.decode_entries (ask_provider stack ~provider req)
  in
  let words_of_resp = function
    | Ok s -> 2 + Cost.words_of_bytes (String.length s)
    | Error _ -> 2
  in
  for _ = 1 to max 1 workers do
    ignore
      (Svc.start ~words_of_resp t.hyd (fun rel ->
           Span.timed ~subsystem:"projfs" ~name:"hydrate" t.h_hydrate
             (fun () ->
               ask_provider stack ~provider ("R " ^ rel))))
  done;
  match Msgvfs.project fs ~at { Msgvfs.proj_entries; proj_fetch } with
  | Error e -> Error e
  | Ok () ->
    (* the prefetch worker warms paths through its own client: resolve
       (populating the name cache) and read one byte (hydrating) *)
    let ic = Msgvfs.client fs in
    ignore
      (Svc.start_cast t.pf (fun path ->
           let warmed =
             match Msgvfs.resolve ic path with
             | Error _ -> false
             | Ok h ->
               Namecache.insert t.cache path h;
               let fd = Msgvfs.open_handle ic h in
               let ok =
                 match Msgvfs.read ic fd ~off:0 ~len:1 with
                 | Ok _ -> true
                 | Error _ -> false
               in
               ignore (Msgvfs.close ic fd);
               ok
           in
           if warmed then t.pf_done <- t.pf_done + 1
           else t.pf_dropped <- t.pf_dropped + 1));
    register_inspect t;
    Ok t

(* ------------------------------------------------------------------ *)
(* Clients: fd table + shared name cache                               *)

type client = {
  m : t;
  ic : Msgvfs.t;
  fd_paths : (int, string) Hashtbl.t;
  mutable cold_opens : int;
  mutable warm_opens : int;
}

let client m =
  { m; ic = Msgvfs.client m.sys; fd_paths = Hashtbl.create 16;
    cold_opens = 0; warm_opens = 0 }

let mkdir c path = Msgvfs.mkdir c.ic path

let create c path =
  let r = Msgvfs.create c.ic path in
  (* the name may have been cached absent *)
  if r = Ok () then Namecache.invalidate c.m.cache path;
  r

let install c path fd =
  Hashtbl.replace c.fd_paths fd path;
  Namecache.acquire c.m.cache path;
  fd

let open_ c path =
  match Namecache.find c.m.cache path with
  | `Hit h ->
    c.warm_opens <- c.warm_opens + 1;
    Ok (install c path (Msgvfs.open_handle c.ic h))
  | `Negative -> Error Fsspec.Enoent
  | `Miss -> (
    match Msgvfs.resolve c.ic path with
    | Ok h ->
      c.cold_opens <- c.cold_opens + 1;
      Namecache.insert c.m.cache path h;
      Ok (install c path (Msgvfs.open_handle c.ic h))
    | Error Fsspec.Enoent ->
      Namecache.insert_negative c.m.cache path;
      Error Fsspec.Enoent
    | Error e -> Error e)

let close c fd =
  (match Hashtbl.find_opt c.fd_paths fd with
  | Some path ->
    Hashtbl.remove c.fd_paths fd;
    Namecache.release c.m.cache path
  | None -> ());
  Msgvfs.close c.ic fd

let read c fd ~off ~len = Msgvfs.read c.ic fd ~off ~len

let write c fd ~off data = Msgvfs.write c.ic fd ~off data

let stat c path = Msgvfs.stat c.ic path

let unlink c path =
  let r = Msgvfs.unlink c.ic path in
  if r = Ok () then Namecache.invalidate c.m.cache path;
  r

let rename c src dst =
  let r = Msgvfs.rename c.ic src dst in
  if r = Ok () then begin
    Namecache.invalidate c.m.cache src;
    Namecache.invalidate c.m.cache dst
  end;
  r

let readdir c path = Msgvfs.readdir c.ic path

let open_stats c = (c.cold_opens, c.warm_opens)

(* ------------------------------------------------------------------ *)

let prefetch t path =
  t.pf_queued <- t.pf_queued + 1;
  match Svc.offer t.pf path with
  | `Ok -> ()
  | `Busy -> t.pf_dropped <- t.pf_dropped + 1

let prefetch_stats t = (t.pf_queued, t.pf_done, t.pf_dropped)

let hydrate_ep t = t.hyd

let cache t = t.cache

let mount_path t = t.at

let fs_sys t = t.sys
