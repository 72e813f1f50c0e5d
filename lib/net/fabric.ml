module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Rng = Chorus_util.Rng

type frame = {
  src : int;
  dst : int;
  port : int;
  seq : int;
  payload : string;
}

type nic = {
  naddr : int;
  tx : frame Chan.t;  (** to the driver fiber *)
  rx_ch : frame Chan.t;
}

type fault_stats = {
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
}

(* A directed per-(src,dst) fault override.  Gray failures are
   asymmetric by nature — a link can be dead or slow in one direction
   while its reverse stays healthy — so overrides are keyed on the
   ordered pair and layered over the global knobs: a frame whose link
   has an override consults it first and falls through to the global
   knobs only if no link fault fires. *)
type link_faults = {
  mutable lk_partition : bool;
  mutable lk_loss : float;
  mutable lk_delay : float;
  mutable lk_delay_cycles : int;
}

type link_stats = {
  mutable partitioned : int;
  mutable link_dropped : int;
  mutable link_delayed : int;
}

type t = {
  latency : int;
  mutable loss : float;
  mutable dup : float;
  mutable reorder : float;
  mutable delay : float;
  mutable delay_cycles : int;
  fstats : fault_stats;
  links : (int * int, link_faults) Hashtbl.t;
      (** directed (src,dst) fault overrides; absent = no override *)
  lstats : link_stats;
  rng : Rng.t;
  wire : (int * frame * nic) Chan.t;
      (** (deliver_at, frame, destination): drained by the wire pump *)
  mutable nics : nic list;  (** reversed attach order *)
  mutable next_addr : int;
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
}

let frame_words f = 6 + ((String.length f.payload + 7) / 8)

let deliver t dst f =
  t.delivered <- t.delivered + 1;
  if not (Chan.is_closed dst.rx_ch) then
    Chan.send ~words:(frame_words f) dst.rx_ch f

(* The wire pump carries frames in flight: it sleeps until each
   frame's arrival time and posts it on the destination's rx channel
   (the receive interrupt). *)
let wire_pump t =
  let rec loop () =
    let deliver_at, f, dst = Chan.recv t.wire in
    let now = Fiber.now () in
    if deliver_at > now then Fiber.sleep (deliver_at - now);
    deliver t dst f;
    loop ()
  in
  loop ()

(* Faulted frames (duplicates, reordered, delayed) bypass the FIFO
   wire pump: each rides its own one-shot in-flight fiber, so frames
   sent after it can overtake — which is the whole point. *)
let deliver_at t dst f at =
  ignore
    (Fiber.spawn ~label:"in-flight" ~daemon:true (fun () ->
         let now = Fiber.now () in
         if at > now then Fiber.sleep (at - now);
         deliver t dst f))

let check_knob name p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg (Printf.sprintf "Fabric: %s must be in [0, 1)" name)

let create ?(latency = 5_000) ?(loss = 0.0) ?(seed = 17) () =
  check_knob "loss" loss;
  let t =
    { latency; loss; dup = 0.0; reorder = 0.0; delay = 0.0;
      delay_cycles = 10 * latency;
      fstats = { duplicated = 0; reordered = 0; delayed = 0 };
      links = Hashtbl.create 8;
      lstats = { partitioned = 0; link_dropped = 0; link_delayed = 0 };
      rng = Rng.make seed; wire = Chan.unbounded ~label:"wire" ();
      nics = []; next_addr = 0; sent = 0; dropped = 0; delivered = 0 }
  in
  ignore (Fiber.spawn ~label:"wire-pump" ~daemon:true (fun () -> wire_pump t));
  t

let set_faults t ?loss ?dup ?reorder ?delay ?delay_cycles () =
  let app name field v =
    match v with
    | None -> ()
    | Some p ->
      check_knob name p;
      field p
  in
  app "loss" (fun p -> t.loss <- p) loss;
  app "dup" (fun p -> t.dup <- p) dup;
  app "reorder" (fun p -> t.reorder <- p) reorder;
  app "delay" (fun p -> t.delay <- p) delay;
  match delay_cycles with Some c -> t.delay_cycles <- c | None -> ()

let set_link_faults t ~src ~dst ?partition ?loss ?delay ?delay_cycles () =
  let lk =
    match Hashtbl.find_opt t.links (src, dst) with
    | Some lk -> lk
    | None ->
      let lk =
        { lk_partition = false; lk_loss = 0.0; lk_delay = 0.0;
          lk_delay_cycles = 10 * t.latency }
      in
      Hashtbl.replace t.links (src, dst) lk;
      lk
  in
  (match partition with Some b -> lk.lk_partition <- b | None -> ());
  (match loss with
  | Some p ->
    check_knob "link loss" p;
    lk.lk_loss <- p
  | None -> ());
  (match delay with
  | Some p ->
    check_knob "link delay" p;
    lk.lk_delay <- p
  | None -> ());
  match delay_cycles with Some c -> lk.lk_delay_cycles <- c | None -> ()

let clear_link_faults t ~src ~dst = Hashtbl.remove t.links (src, dst)

let link_stats t = t.lstats

let find_nic t addr = List.find_opt (fun n -> n.naddr = addr) t.nics

(* The transmit driver: one fiber per NIC, straight-line code, no
   locks (paper Section 4's driver pattern).

   Determinism note: the loss draw is unconditional (it always was);
   the dup/reorder/delay draws happen only while their knob is
   non-zero, and the per-link override lookup is a hash probe with no
   RNG (link loss/delay draw only when their knob is non-zero on that
   link), so with every knob off and no link overrides the RNG stream
   — and therefore the whole run — is byte-identical to the pre-knob
   fabric.

   A frame whose link fault fires (partition drop, link loss, link
   delay) is fully claimed by the link layer: the global
   delay/reorder/dup knobs are skipped for it.  Frames on an overridden
   link whose link draws all miss fall through to the global knobs
   unchanged. *)
let driver t nic =
  let fires p = p > 0.0 && Rng.bernoulli t.rng p in
  let rec loop () =
    let f = Chan.recv nic.tx in
    (* serialization/DMA time proportional to the frame *)
    Fiber.work (40 + (frame_words f * 2));
    t.sent <- t.sent + 1;
    (if Rng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
     else
       match find_nic t f.dst with
       | None -> t.dropped <- t.dropped + 1
       | Some dst ->
         let base = Fiber.now () + t.latency in
         let global () =
           (if fires t.delay then begin
              t.fstats.delayed <- t.fstats.delayed + 1;
              deliver_at t dst f (base + t.delay_cycles)
            end
            else if fires t.reorder then begin
              t.fstats.reordered <- t.fstats.reordered + 1;
              deliver_at t dst f (base + t.latency)
            end
            else Chan.send ~words:2 t.wire (base, f, dst));
           if fires t.dup then begin
             t.fstats.duplicated <- t.fstats.duplicated + 1;
             deliver_at t dst f (base + (t.latency / 2))
           end
         in
         (match Hashtbl.find_opt t.links (nic.naddr, f.dst) with
         | Some lk when lk.lk_partition ->
           t.lstats.partitioned <- t.lstats.partitioned + 1;
           t.dropped <- t.dropped + 1
         | Some lk when fires lk.lk_loss ->
           t.lstats.link_dropped <- t.lstats.link_dropped + 1;
           t.dropped <- t.dropped + 1
         | Some lk when fires lk.lk_delay ->
           t.lstats.link_delayed <- t.lstats.link_delayed + 1;
           deliver_at t dst f (base + lk.lk_delay_cycles)
         | Some _ | None -> global ()));
    loop ()
  in
  loop ()

let attach t ?label () =
  let naddr = t.next_addr in
  t.next_addr <- naddr + 1;
  let label =
    match label with Some l -> l | None -> Printf.sprintf "nic-%d" naddr
  in
  let nic =
    { naddr;
      tx = Chan.unbounded ~label:(label ^ "-tx") ();
      rx_ch = Chan.unbounded ~label:(label ^ "-rx") () }
  in
  t.nics <- nic :: t.nics;
  ignore
    (Fiber.spawn ~label:(label ^ "-driver") ~daemon:true (fun () ->
         driver t nic));
  nic

let addr nic = nic.naddr

let transmit nic f =
  Chan.send ~words:(frame_words f) nic.tx { f with src = nic.naddr }

let rx nic = nic.rx_ch

let frames_sent t = t.sent

let frames_dropped t = t.dropped

let frames_delivered t = t.delivered

let fault_stats t = t.fstats
