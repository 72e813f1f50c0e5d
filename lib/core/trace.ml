type event =
  | Spawn of { child : int; on_core : int }
  | Exit of { status : string }
  | Block of { on : string }
  | Wake
  | Send of { chan : int; words : int; src : int; dst : int }
  | Recv of { chan : int }
  | Steal of { victim_core : int; fiber : int }
  | Span_begin of { subsystem : string; span : string }
  | Span_end of { subsystem : string; span : string }
  | Segment of { start : int; label : string }
  | Custom of string

type record = { time : int; core : int; fiber : int; event : event }

type sink = record -> unit

let collector () =
  let buf = ref [] in
  let sink r = buf := r :: !buf in
  (sink, fun () -> List.rev !buf)

let ring ~capacity () =
  if capacity < 1 then invalid_arg "Trace.ring: capacity must be >= 1";
  let buf = Array.make capacity None in
  let next = ref 0 in
  let dropped = ref 0 in
  let sink r =
    if !next >= capacity then incr dropped;
    buf.(!next mod capacity) <- Some r;
    next := !next + 1
  in
  let get () =
    let n = !next in
    let first = if n > capacity then n - capacity else 0 in
    let out = ref [] in
    for i = n - 1 downto first do
      match buf.(i mod capacity) with
      | Some r -> out := r :: !out
      | None -> ()
    done;
    !out
  in
  (sink, get, fun () -> !dropped)

let pp_event ppf = function
  | Spawn { child; on_core } ->
    Format.fprintf ppf "spawn child=%d core=%d" child on_core
  | Exit { status } -> Format.fprintf ppf "exit %s" status
  | Block { on } -> Format.fprintf ppf "block on=%s" on
  | Wake -> Format.pp_print_string ppf "wake"
  | Send { chan; words; src; dst } ->
    Format.fprintf ppf "send chan=%d words=%d src=%d dst=%d" chan words src
      dst
  | Recv { chan } -> Format.fprintf ppf "recv chan=%d" chan
  | Steal { victim_core; fiber } ->
    Format.fprintf ppf "steal victim=%d fiber=%d" victim_core fiber
  | Span_begin { subsystem; span } ->
    Format.fprintf ppf "span-begin %s/%s" subsystem span
  | Span_end { subsystem; span } ->
    Format.fprintf ppf "span-end %s/%s" subsystem span
  | Segment { start; label } ->
    Format.fprintf ppf "segment start=%d label=%s" start label
  | Custom s -> Format.pp_print_string ppf s

let pp_record ppf r =
  Format.fprintf ppf "[%8d c%02d f%03d] %a" r.time r.core r.fiber pp_event
    r.event
