module Histogram = Chorus_util.Histogram

type gauge_state = {
  mutable last : int;
  mutable peak : int;
  mutable samples : int;
  mutable sum : float;
}

type metric =
  | M_counter of int ref
  | M_gauge of gauge_state
  | M_histogram of Histogram.t

type t = { tbl : ((string * string), metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* The "installed registry" is a Ctx slot, not a global: installed
   before a run it binds in the installing domain's ambient context and
   is adopted into the engine's context at Engine.start, so handle
   creation from inside the run finds it while concurrent runs on
   other domains see nothing. *)
let slot : t Chorus.Ctx.slot = Chorus.Ctx.slot "obs.metrics"

let install r = Chorus.Ctx.set slot r

let uninstall () = Chorus.Ctx.clear slot

let installed () = Chorus.Ctx.get slot

let installed_in ctx = Chorus.Ctx.get_in ctx slot

let reset r = Hashtbl.reset r.tbl

(* Handles are [None] when no registry was installed at creation time,
   so every record/incr on them is a single pattern match and nothing
   else — uninstrumented runs pay (almost) nothing. *)

type counter = int ref option

type gauge = gauge_state option

type histogram = Histogram.t option

let find_or_register ~subsystem name make get =
  match installed () with
  | None -> None
  | Some r -> (
    let key = (subsystem, name) in
    match Hashtbl.find_opt r.tbl key with
    | Some m -> get key m
    | None ->
      let m = make () in
      Hashtbl.replace r.tbl key m;
      get key m)

let kind_error (subsystem, name) =
  invalid_arg
    (Printf.sprintf
       "Metrics: %s/%s already registered with a different metric kind"
       subsystem name)

let counter ~subsystem name =
  find_or_register ~subsystem name
    (fun () -> M_counter (ref 0))
    (fun key m ->
      match m with M_counter c -> Some c | _ -> kind_error key)

let gauge ~subsystem name =
  find_or_register ~subsystem name
    (fun () -> M_gauge { last = 0; peak = 0; samples = 0; sum = 0.0 })
    (fun key m -> match m with M_gauge g -> Some g | _ -> kind_error key)

let histogram ~subsystem name =
  find_or_register ~subsystem name
    (fun () -> M_histogram (Histogram.create ()))
    (fun key m ->
      match m with M_histogram h -> Some h | _ -> kind_error key)

let incr c = match c with None -> () | Some r -> r := !r + 1

let observe g v =
  match g with
  | None -> ()
  | Some s ->
    s.last <- v;
    if v > s.peak then s.peak <- v;
    s.samples <- s.samples + 1;
    s.sum <- s.sum +. float_of_int v

let record h v = match h with None -> () | Some t -> Histogram.record t v

let live = function None -> false | Some _ -> true

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type value =
  | Counter of int
  | Gauge of { last : int; peak : int; mean : float }
  | Histo of {
      count : int;
      mean : float;
      p50 : int;
      p95 : int;
      p99 : int;
      max : int;
    }

type snapshot = ((string * string) * value) list

let snapshot r =
  Hashtbl.fold
    (fun key m acc ->
      let v =
        match m with
        | M_counter c -> Counter !c
        | M_gauge g ->
          Gauge
            { last = g.last;
              peak = g.peak;
              mean =
                (if g.samples = 0 then 0.0
                 else g.sum /. float_of_int g.samples) }
        | M_histogram h ->
          Histo
            { count = Histogram.count h;
              mean = Histogram.mean h;
              p50 = Histogram.percentile h 50.0;
              p95 = Histogram.percentile h 95.0;
              p99 = Histogram.percentile h 99.0;
              max = Histogram.max_value h }
      in
      (key, v) :: acc)
    r.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
