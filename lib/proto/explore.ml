type action =
  | Send of string * string
  | Recv of string * string
  | Tau

type process = {
  pname : string;
  start : int;
  final : int list;
  transitions : (int * action * int) list;
}

type channel_decl = { cname : string; capacity : int }

type system = { processes : process list; channels : channel_decl list }

type verdict =
  | Ok_no_deadlock of { states_explored : int }
  | Deadlock of {
      states_explored : int;
      trace : string list;
      stuck : string list;
    }
  | Budget_exhausted of { states_explored : int }

(* A configuration: local state of each process plus the queued labels
   of each buffered channel. *)
type config = { locs : int list; queues : string list list }

let action_to_string who = function
  | Send (c, l) -> Printf.sprintf "%s: %s!%s" who c l
  | Recv (c, l) -> Printf.sprintf "%s: %s?%s" who c l
  | Tau -> Printf.sprintf "%s: tau" who

let check ?(max_states = 200_000) sys =
  let procs = Array.of_list sys.processes in
  let chans = Array.of_list sys.channels in
  let chan_index name =
    let rec go i =
      if i >= Array.length chans then
        invalid_arg ("Explore.check: unknown channel " ^ name)
      else if chans.(i).cname = name then i
      else go (i + 1)
    in
    go 0
  in
  (* validate channel references up front *)
  Array.iter
    (fun p ->
      List.iter
        (fun (_, a, _) ->
          match a with
          | Send (c, _) | Recv (c, _) -> ignore (chan_index c)
          | Tau -> ())
        p.transitions)
    procs;
  let outgoing p loc =
    List.filter (fun (s, _, _) -> s = loc) p.transitions
  in
  (* successor configurations with a description of the step taken *)
  let successors (cfg : config) =
    let locs = Array.of_list cfg.locs in
    let queues = Array.of_list cfg.queues in
    let succs = ref [] in
    let emit desc locs' queues' =
      succs :=
        (desc, { locs = Array.to_list locs'; queues = Array.to_list queues' })
        :: !succs
    in
    Array.iteri
      (fun i p ->
        List.iter
          (fun (_, a, dst) ->
            match a with
            | Tau ->
              let locs' = Array.copy locs in
              locs'.(i) <- dst;
              emit (action_to_string p.pname Tau) locs' queues
            | Send (cn, l) ->
              let ci = chan_index cn in
              if chans.(ci).capacity > 0 then begin
                if List.length queues.(ci) < chans.(ci).capacity then begin
                  let locs' = Array.copy locs in
                  locs'.(i) <- dst;
                  let queues' = Array.copy queues in
                  queues'.(ci) <- queues.(ci) @ [ l ];
                  emit (action_to_string p.pname a) locs' queues'
                end
              end
              else
                (* rendezvous: find a matching receiver in another
                   process *)
                Array.iteri
                  (fun j q ->
                    if j <> i then
                      List.iter
                        (fun (_, a2, dst2) ->
                          match a2 with
                          | Recv (cn2, l2) when cn2 = cn && l2 = l ->
                            let locs' = Array.copy locs in
                            locs'.(i) <- dst;
                            locs'.(j) <- dst2;
                            emit
                              (Printf.sprintf "%s -> %s on %s!%s" p.pname
                                 q.pname cn l)
                              locs' queues
                          | Recv _ | Send _ | Tau -> ())
                        (outgoing q locs.(j)))
                  procs
            | Recv (cn, l) ->
              let ci = chan_index cn in
              if chans.(ci).capacity > 0 then begin
                match queues.(ci) with
                | head :: rest when head = l ->
                  let locs' = Array.copy locs in
                  locs'.(i) <- dst;
                  let queues' = Array.copy queues in
                  queues'.(ci) <- rest;
                  emit (action_to_string p.pname a) locs' queues'
                | _ -> ()
              end
              (* rendezvous receives fire from the sender side *))
          (outgoing p locs.(i)))
      procs;
    List.rev !succs
  in
  let all_final cfg =
    List.for_all2
      (fun loc p -> List.mem loc p.final)
      cfg.locs (Array.to_list procs)
  in
  let stuck_report cfg =
    List.map2
      (fun loc p ->
        Printf.sprintf "%s at state %d%s" p.pname loc
          (if List.mem loc p.final then " (final)" else ""))
      cfg.locs (Array.to_list procs)
  in
  let initial =
    { locs = Array.to_list (Array.map (fun p -> p.start) procs);
      queues = Array.to_list (Array.map (fun _ -> []) chans) }
  in
  let visited : (config, unit) Hashtbl.t = Hashtbl.create 1024 in
  let parent : (config, config * string) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.add visited initial ();
  Queue.push initial queue;
  let explored = ref 0 in
  let rec trace_of cfg acc =
    match Hashtbl.find_opt parent cfg with
    | None -> acc
    | Some (prev, desc) -> trace_of prev (desc :: acc)
  in
  let result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    if !explored >= max_states then
      result := Some (Budget_exhausted { states_explored = !explored })
    else begin
      let cfg = Queue.pop queue in
      incr explored;
      let succs = successors cfg in
      if succs = [] && not (all_final cfg) then
        result :=
          Some
            (Deadlock
               { states_explored = !explored;
                 trace = trace_of cfg [];
                 stuck = stuck_report cfg })
      else
        List.iter
          (fun (desc, next) ->
            if not (Hashtbl.mem visited next) then begin
              Hashtbl.add visited next ();
              Hashtbl.add parent next (cfg, desc);
              Queue.push next queue
            end)
          succs
    end
  done;
  match !result with
  | Some v -> v
  | None -> Ok_no_deadlock { states_explored = !explored }
