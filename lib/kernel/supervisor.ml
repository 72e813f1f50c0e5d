module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Metrics = Chorus_obs.Metrics

type strategy = One_for_one | One_for_all

type child_spec = { cname : string; cstart : unit -> Fiber.t }

type msg = Exited of int * int * Fiber.exit_status | Stop
(** child index, fiber id, status *)

type t = {
  inbox : msg Chan.t;
  specs : child_spec array;
  fibers : Fiber.t option array;
  expected_kills : (int, unit) Hashtbl.t;
      (** fiber ids the supervisor itself killed; their Killed exits
          are intentional, any other Killed is an external fault *)
  mutable restarts : int;
  mutable log : (int * string) list;  (** reversed *)
  mutable gave_up : bool;
  restart_c : Metrics.counter;
  giveup_c : Metrics.counter;
}

let watch t idx fiber =
  t.fibers.(idx) <- Some fiber;
  let fid = Fiber.id fiber in
  Fiber.monitor fiber (fun ~time:_ st ->
      (* the supervisor may already be gone during teardown *)
      if not (Chan.is_closed t.inbox) then
        Chan.send t.inbox (Exited (idx, fid, st)))

let spawn_child t idx =
  let f = t.specs.(idx).cstart () in
  watch t idx f

let kill_child t idx =
  match t.fibers.(idx) with
  | Some f when Fiber.alive f ->
    t.fibers.(idx) <- None;
    Hashtbl.replace t.expected_kills (Fiber.id f) ();
    Fiber.kill f
  | Some _ | None -> t.fibers.(idx) <- None

let give_up t =
  if not t.gave_up then Metrics.incr t.giveup_c;
  t.gave_up <- true;
  Array.iteri (fun i _ -> kill_child t i) t.fibers;
  Chan.close t.inbox

let start ?(max_restarts = 10) ?(window = 10_000_000) strategy specs =
  let specs = Array.of_list specs in
  let t =
    { inbox = Chan.unbounded ~label:"supervisor" ();
      specs;
      fibers = Array.map (fun _ -> None) specs;
      expected_kills = Hashtbl.create 8;
      restarts = 0;
      log = [];
      gave_up = false;
      restart_c = Metrics.counter ~subsystem:"supervisor" "restarts";
      giveup_c = Metrics.counter ~subsystem:"supervisor" "give_ups" }
  in
  let recent = ref [] in
  let too_intense now =
    recent := List.filter (fun ts -> now - ts < window) (now :: !recent);
    List.length !recent > max_restarts
  in
  let restart t idx =
    let now = Fiber.now () in
    if too_intense now then give_up t
    else begin
      t.restarts <- t.restarts + 1;
      Metrics.incr t.restart_c;
      t.log <- (now, t.specs.(idx).cname) :: t.log;
      match strategy with
      | One_for_one -> spawn_child t idx
      | One_for_all ->
        Array.iteri (fun i _ -> if i <> idx then kill_child t i) t.fibers;
        Array.iteri (fun i _ -> spawn_child t i) t.fibers
    end
  in
  ignore
    (Fiber.spawn ~label:"supervisor" ~daemon:true (fun () ->
        Array.iteri (fun i _ -> spawn_child t i) t.specs;
        let rec loop () =
          match Chan.recv t.inbox with
          | Stop -> give_up t
          | Exited (idx, fid, st) ->
            (match st with
            | Fiber.Crashed _ -> restart t idx
            | Fiber.Killed ->
              if Hashtbl.mem t.expected_kills fid then
                Hashtbl.remove t.expected_kills fid
              else
                (* killed from outside: a fault, treat as a crash *)
                restart t idx
            | Fiber.Normal -> ());
            loop ()
        in
        try loop () with Chan.Closed -> ()));
  t

let restarts t = t.restarts

let restart_log t = List.rev t.log

let gave_up t = t.gave_up

let stop t = if not (Chan.is_closed t.inbox) then Chan.send t.inbox Stop
