module Trace = Chorus.Trace
module Inspect = Chorus.Inspect
open Inspect

(* Chrome trace-event JSON (the about://tracing / Perfetto "JSON
   object format").  Mapping: the simulated chip is one process; each
   core is a "thread" carrying the fiber segments that executed on it
   plus instant marks for scheduler/channel events; service spans get
   a parallel "core N spans" track keyed by the core the span opened
   on, so slices nest cleanly even when a span sleeps across fiber
   segments.  One virtual cycle renders as one microsecond (ts is in
   us in this format), so cycle arithmetic survives in the UI.

   Everything here is a pure function of the record list, so a fixed
   (seed, inputs) run exports byte-identical JSON. *)

(* tid layout: 0 = outside-any-fiber events, 1+c = core c's segments,
   1001+c = core c's service spans. *)
let tid_of_core c = if c < 0 then 0 else c + 1

let span_tid_of_core c = if c < 0 then 0 else c + 1001

let slice ~tid ~ts ~dur name args =
  Assoc
    [ ("ph", String "X"); ("pid", Int 1); ("tid", Int tid); ("ts", Int ts);
      ("dur", Int dur); ("name", String name); ("args", Assoc args) ]

let instant ~tid ~ts name args =
  Assoc
    [ ("ph", String "i"); ("pid", Int 1); ("tid", Int tid); ("ts", Int ts);
      ("s", String "t"); ("name", String name); ("args", Assoc args) ]

let thread_meta tid name sort_index =
  let row key args =
    Assoc
      [ ("ph", String "M"); ("pid", Int 1); ("tid", Int tid);
        ("name", String key); ("args", Assoc args) ]
  in
  [ row "thread_name" [ ("name", String name) ];
    row "thread_sort_index" [ ("sort_index", Int sort_index) ] ]

let to_string records =
  (* (ts, emission seq, event), newest first *)
  let events = ref [] in
  let nseq = ref 0 in
  let push ts ev =
    incr nseq;
    events := (ts, !nseq, ev) :: !events
  in
  (* per-fiber stacks of open spans: (subsystem, span, begin ts,
     begin core) *)
  let open_spans : (int, (string * string * int * int) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let stack_of fid =
    match Hashtbl.find_opt open_spans fid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace open_spans fid s;
      s
  in
  let max_core = ref (-1) in
  List.iter
    (fun r ->
      let fiber = ("fiber", Int r.Trace.fiber) in
      if r.Trace.core > !max_core then max_core := r.Trace.core;
      match r.Trace.event with
      | Trace.Segment { start; label } ->
        push start
          (slice ~tid:(tid_of_core r.Trace.core) ~ts:start
             ~dur:(r.Trace.time - start) label [ fiber ])
      | Trace.Span_begin { subsystem; span } ->
        let st = stack_of r.Trace.fiber in
        st := (subsystem, span, r.Trace.time, r.Trace.core) :: !st
      | Trace.Span_end { subsystem; span } ->
        let st = stack_of r.Trace.fiber in
        let rec unwind = function
          | (sub, sp, ts, core) :: rest when sub = subsystem && sp = span ->
            push ts
              (slice ~tid:(span_tid_of_core core) ~ts ~dur:(r.Trace.time - ts)
                 span [ fiber; ("subsystem", String sub) ]);
            rest
          | _ :: rest -> unwind rest
          | [] -> []
        in
        st := unwind !st
      | ev ->
        let name, args = Trace.fields ev in
        push r.Trace.time
          (instant ~tid:(tid_of_core r.Trace.core) ~ts:r.Trace.time name
             (fiber :: args)))
    records;
  (* spans left open at end of trace: emit as zero-duration marks so
     they are visible rather than silently dropped *)
  let leftovers = Hashtbl.fold (fun fid st acc -> (fid, !st) :: acc)
      open_spans []
  in
  List.iter
    (fun (fid, st) ->
      List.iter
        (fun (sub, sp, ts, core) ->
          push ts
            (instant ~tid:(span_tid_of_core core) ~ts ("unclosed:" ^ sp)
               [ ("fiber", Int fid); ("subsystem", String sub) ]))
        st)
    (List.sort compare leftovers);
  let threads =
    thread_meta 0 "external" (-1)
    :: List.init (!max_core + 1) (fun c ->
           thread_meta (tid_of_core c) (Printf.sprintf "core %d" c) (2 * c)
           @ thread_meta (span_tid_of_core c)
               (Printf.sprintf "core %d spans" c)
               ((2 * c) + 1))
  in
  let sorted =
    List.stable_sort
      (fun (ts, seq, _) (ts', seq', _) ->
        if ts <> ts' then compare ts ts' else compare seq seq')
      (List.rev !events)
  in
  Inspect.to_json
    (Assoc
       [ ("displayTimeUnit", String "ms");
         ("otherData",
          Assoc
            [ ("exporter", String "chorus");
              ("timeUnit", String "1 virtual cycle = 1 us") ]);
         ("traceEvents",
          List
            ((Assoc
                [ ("ph", String "M"); ("pid", Int 1);
                  ("name", String "process_name");
                  ("args", Assoc [ ("name", String "chorus") ]) ]
             :: List.concat threads)
            @ List.map (fun (_, _, ev) -> ev) sorted)) ])
  ^ "\n"

let write_file path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string records))
