module Fiber = Chorus.Fiber
module Svc = Chorus_svc.Svc

type freq = Falloc | Ffree of int

type fresp = Frame of int | Fnone | Fok

type preq = Fault of int | Protect of int | Count

type presp = Mapped | Already | Oom | Done | Count_is of int

type t = {
  frame_ep : (freq, fresp) Svc.t;
  managers : (preq, presp) Svc.t array;
  pages_per_manager : int;
  pages : int;
  mutable faults : int;
}

let serve_frames ep ~frames =
  let free = Queue.create () in
  for f = 0 to frames - 1 do
    Queue.push f free
  done;
  Svc.serve ep (fun req ->
      match req with
      | Falloc -> if Queue.is_empty free then Fnone else Frame (Queue.pop free)
      | Ffree f ->
        Queue.push f free;
        Fok)

let serve_manager t ep =
  (* page -> frame for the slice this manager owns *)
  let table : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Svc.serve ep (fun req ->
      match req with
      | Fault page ->
        if Hashtbl.mem table page then Already
        else begin
          match Svc.call t.frame_ep Falloc with
          | Frame f ->
            (* charge the page-table update *)
            Fiber.work 40;
            Hashtbl.replace table page f;
            Mapped
          | Fnone -> Oom
          | Fok -> assert false
        end
      | Protect page -> (
        match Hashtbl.find_opt table page with
        | None -> Done
        | Some f ->
          Hashtbl.remove table page;
          (match Svc.call t.frame_ep (Ffree f) with
          | Fok -> ()
          | Frame _ | Fnone -> assert false);
          Done)
      | Count -> Count_is (Hashtbl.length table))

let start ?(pages_per_manager = 1024) ~pages ~frames () =
  if pages_per_manager < 1 then invalid_arg "Vmserv.start";
  let nmanagers = (pages + pages_per_manager - 1) / pages_per_manager in
  let t =
    { frame_ep =
        Svc.create ~subsystem:"vm" ~metric_name:"frame"
          ~label:"frame-alloc" ();
      managers =
        Array.init nmanagers (fun i ->
            Svc.create ~subsystem:"vm" ~metric_name:"manager"
              ~label:(Printf.sprintf "vm-%d" i) ());
      pages_per_manager;
      pages;
      faults = 0 }
  in
  ignore
    (Fiber.spawn ~label:"frame-alloc" ~daemon:true (fun () ->
         serve_frames t.frame_ep ~frames));
  Array.iteri
    (fun i ep ->
      ignore
        (Fiber.spawn ~label:(Printf.sprintf "vm-%d" i) ~daemon:true (fun () ->
             serve_manager t ep)))
    t.managers;
  t

let manager_of t page =
  if page < 0 || page >= t.pages then invalid_arg "Vmserv: page out of range";
  t.managers.(page / t.pages_per_manager)

let fault t page =
  t.faults <- t.faults + 1;
  match Svc.call ~words:3 (manager_of t page) (Fault page) with
  | Mapped -> `Mapped
  | Already -> `Already
  | Oom -> `Oom
  | Done | Count_is _ -> assert false

let protect t page =
  match Svc.call ~words:3 (manager_of t page) (Protect page) with
  | Done -> ()
  | Mapped | Already | Oom | Count_is _ -> assert false

let mapped t =
  Array.fold_left
    (fun acc ep ->
      match Svc.call ep Count with
      | Count_is n -> acc + n
      | Mapped | Already | Oom | Done -> assert false)
    0 t.managers

let managers t = Array.length t.managers
