module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Metrics = Chorus_obs.Metrics
module Svc = Chorus_svc.Svc

type event = App_exit of { pid : int; ok : bool }

type msg =
  | Publish of event
  | Subscribe of (event -> bool) * event Chan.t

type t = {
  inbox : msg Svc.cast;
  mutable published : int;
  mutable delivered : int;
  published_c : Metrics.counter;
  delivered_c : Metrics.counter;
}

let start () =
  let t = { inbox = Svc.cast_create ~subsystem:"notify" ~label:"notify" ();
            published = 0; delivered = 0;
            published_c = Metrics.counter ~subsystem:"notify" "published";
            delivered_c = Metrics.counter ~subsystem:"notify" "delivered" } in
  let subscribers : ((event -> bool) * event Chan.t) list ref = ref [] in
  (* the hub fiber keeps its historical label, distinct from the
     endpoint's channel label *)
  ignore
    (Fiber.spawn ~label:"notify-hub" ~daemon:true (fun () ->
         Svc.serve_cast t.inbox (function
           | Subscribe (filter, ch) ->
             subscribers := (filter, ch) :: !subscribers
           | Publish ev ->
             t.published <- t.published + 1;
             Metrics.incr t.published_c;
             subscribers :=
               List.filter
                 (fun (filter, ch) ->
                   if Chan.is_closed ch then false
                   else begin
                     if filter ev then begin
                       Chan.send ~words:4 ch ev;
                       t.delivered <- t.delivered + 1;
                       Metrics.incr t.delivered_c
                     end;
                     true
                   end)
                 !subscribers)));
  t

let subscribe_filtered t filter =
  let ch = Chan.unbounded ~label:"notify-sub" () in
  Svc.cast t.inbox (Subscribe (filter, ch));
  ch

let subscribe t = subscribe_filtered t (fun _ -> true)

let publish t ev = Svc.cast ~words:4 t.inbox (Publish ev)

let published t = t.published

let delivered t = t.delivered
