module Fiber = Chorus.Fiber
module Svc = Chorus_svc.Svc

type preq =
  | Register of string * int Svc.reply
  | Exited of int * bool
  | Wait of int * bool Svc.reply

type t = { inbox : preq Svc.cast; notify : Notify.t; mutable spawned : int }

let start ~notify () =
  let t = { inbox = Svc.cast_create ~subsystem:"proc" ~label:"proc-table" ();
            notify; spawned = 0 } in
  let next_pid = ref 1 in
  let status : (int, bool) Hashtbl.t = Hashtbl.create 32 in
  let waiters : (int, bool Svc.reply list) Hashtbl.t = Hashtbl.create 8 in
  ignore
    (Svc.start_cast t.inbox (function
       | Register (_label, reply) ->
         let pid = !next_pid in
         incr next_pid;
         Svc.answer reply pid
       | Exited (pid, ok) ->
         Hashtbl.replace status pid ok;
         Notify.publish t.notify (Notify.App_exit { pid; ok });
         (match Hashtbl.find_opt waiters pid with
         | Some ws ->
           Hashtbl.remove waiters pid;
           List.iter (fun ch -> Svc.answer ch ok) ws
         | None -> ())
       | Wait (pid, reply) -> (
         match Hashtbl.find_opt status pid with
         | Some ok -> Svc.answer reply ok
         | None ->
           if pid >= !next_pid || pid < 1 then
             (* never registered: don't leave the waiter hanging *)
             Svc.answer reply false
           else begin
             let ws =
               Option.value ~default:[] (Hashtbl.find_opt waiters pid)
             in
             Hashtbl.replace waiters pid (reply :: ws)
           end)));
  t

let spawn_app t ~label body =
  let reply = Svc.reply_chan () in
  Svc.cast t.inbox (Register (label, reply));
  let pid = Svc.await reply in
  t.spawned <- t.spawned + 1;
  let f = Fiber.spawn ~label (fun () -> body ~pid) in
  Fiber.monitor f (fun ~time:_ st ->
      Svc.cast t.inbox (Exited (pid, st = Fiber.Normal)));
  pid

let wait t pid =
  let reply = Svc.reply_chan () in
  Svc.cast t.inbox (Wait (pid, reply));
  Svc.await reply

let spawned t = t.spawned
