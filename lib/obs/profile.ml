module Trace = Chorus.Trace

type fiber_stats = {
  fid : int;
  mutable label : string;
  mutable core : int;
  mutable spawned : int;
  mutable exited : int;
  mutable busy : int;
  mutable waited : int;
  mutable blocked : int;
  by_tag : (string, int) Hashtbl.t;
  mutable sent : int;
  mutable received : int;
}

type t = {
  fibers : fiber_stats list;
  cores : int;
  matrix : int array array;
}

let of_records records =
  let fibers : (int, fiber_stats) Hashtbl.t = Hashtbl.create 64 in
  (* a fiber first met in one of its own records runs on that record's
     core until a Spawn or a Steal says otherwise *)
  let fiber ~core fid =
    match Hashtbl.find_opt fibers fid with
    | Some f -> f
    | None ->
      let f =
        { fid; label = Printf.sprintf "fiber-%d" fid; core; spawned = -1;
          exited = -1; busy = 0; waited = 0; blocked = 0;
          by_tag = Hashtbl.create 4; sent = 0; received = 0 }
      in
      Hashtbl.replace fibers fid f;
      f
  in
  (* fiber -> (tag, block time) of the still-open block *)
  let pending_block : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
  (* fiber -> time it became runnable, until its next segment starts *)
  let runnable_since : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let max_core = ref 0 in
  List.iter
    (fun r ->
      if r.Trace.core > !max_core then max_core := r.Trace.core;
      match r.Trace.event with
      | Trace.Send { src; dst; _ } ->
        if src > !max_core then max_core := src;
        if dst > !max_core then max_core := dst
      | _ -> ())
    records;
  let cores = !max_core + 1 in
  let matrix = Array.make_matrix cores cores 0 in
  List.iter
    (fun r ->
      let fid = r.Trace.fiber in
      let fiber = fiber ~core:r.Trace.core in
      match r.Trace.event with
      | Trace.Segment { start; label } ->
        let f = fiber fid in
        f.busy <- f.busy + (r.Trace.time - start);
        f.label <- label;
        Option.iter
          (fun t0 ->
            Hashtbl.remove runnable_since fid;
            f.waited <- f.waited + max 0 (start - t0))
          (Hashtbl.find_opt runnable_since fid)
      | Trace.Spawn { child; on_core } ->
        let f = fiber child in
        f.core <- on_core;
        f.spawned <- r.Trace.time
      | Trace.Exit _ -> (fiber fid).exited <- r.Trace.time
      | Trace.Steal _ -> (fiber fid).core <- r.Trace.core
      | Trace.Block { on } ->
        Hashtbl.replace pending_block fid (on, r.Trace.time)
      | Trace.Wake -> (
        Hashtbl.replace runnable_since fid r.Trace.time;
        match Hashtbl.find_opt pending_block fid with
        | None -> ()
        | Some (tag, t0) ->
          Hashtbl.remove pending_block fid;
          let d = max 0 (r.Trace.time - t0) in
          let f = fiber fid in
          f.blocked <- f.blocked + d;
          Hashtbl.replace f.by_tag tag
            ((match Hashtbl.find_opt f.by_tag tag with
             | Some n -> n
             | None -> 0)
            + d))
      | Trace.Send { src; dst; _ } ->
        matrix.(src).(dst) <- matrix.(src).(dst) + 1;
        (fiber fid).sent <- (fiber fid).sent + 1
      | Trace.Recv _ -> (fiber fid).received <- (fiber fid).received + 1
      | Trace.Span_begin _ | Trace.Span_end _ -> ())
    records;
  let fibers =
    Hashtbl.fold (fun _ f acc -> f :: acc) fibers []
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  { fibers; cores; matrix }

let top_by value t n =
  List.stable_sort
    (fun a b ->
      if value b <> value a then compare (value b) (value a)
      else compare a.fid b.fid)
    t.fibers
  |> List.filteri (fun i _ -> i < n)
  |> List.filter (fun f -> value f > 0)

let top_busy t ~n = top_by (fun f -> f.busy) t n

let top_blocked t ~n = top_by (fun f -> f.blocked) t n

let top_waited t ~n = top_by (fun f -> f.waited) t n

let last_exited t ~n =
  List.filter (fun f -> f.exited >= 0) t.fibers
  |> List.stable_sort (fun a b -> compare b.exited a.exited)
  |> List.filteri (fun i _ -> i < n)

let blocked_breakdown f =
  Hashtbl.fold (fun tag d acc -> (tag, d) :: acc) f.by_tag []
  |> List.sort (fun (ta, da) (tb, db) ->
         if da <> db then compare db da else compare ta tb)

let messages t =
  let n = ref 0 in
  Array.iter (fun row -> Array.iter (fun c -> n := !n + c) row) t.matrix;
  !n
