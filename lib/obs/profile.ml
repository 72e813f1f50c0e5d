module Trace = Chorus.Trace
module Histogram = Chorus_util.Histogram

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
  spans : ((string * string) * Histogram.t) list;
  records : int;
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
  (* fiber -> open span stack *)
  let open_spans : (int, (string * string * int) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let spans : (string * string, Histogram.t) Hashtbl.t = Hashtbl.create 16 in
  let span_hist key =
    match Hashtbl.find_opt spans key with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.replace spans key h;
      h
  in
  let max_core = ref 0 in
  let nrecords = ref 0 in
  List.iter
    (fun r ->
      incr nrecords;
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
      | Trace.Steal { fiber = moved; _ } -> (fiber moved).core <- r.Trace.core
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
      | Trace.Span_begin { subsystem; span } ->
        let st =
          match Hashtbl.find_opt open_spans fid with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.replace open_spans fid s;
            s
        in
        st := (subsystem, span, r.Trace.time) :: !st
      | Trace.Span_end { subsystem; span } -> (
        match Hashtbl.find_opt open_spans fid with
        | None -> ()
        | Some st ->
          let rec unwind = function
            | (sub, sp, t0) :: rest when sub = subsystem && sp = span ->
              Histogram.record (span_hist (sub, sp))
                (max 0 (r.Trace.time - t0));
              rest
            | _ :: rest -> unwind rest
            | [] -> []
          in
          st := unwind !st)
      | Trace.Custom _ -> ())
    records;
  let fibers =
    Hashtbl.fold (fun _ f acc -> f :: acc) fibers []
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  let spans =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) spans []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { fibers; cores; matrix; spans; records = !nrecords }

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
