module Engine = Chorus.Engine
module Chan = Chorus.Chan
module Cost = Chorus_machine.Cost

(* Charged on every user/kernel boundary crossing of a Mach-style
   operation: the trap pair, the port-right lookup in the kernel's
   capability space, and the message copy across the boundary. *)
let charge_crossing ~words =
  let eng = Engine.current () in
  let c = Engine.costs eng in
  Engine.charge eng
    ((2 * c.Cost.mode_switch) + (2 * c.Cost.cache_miss)
    + (words * c.Cost.msg_per_word))

module Port = struct
  type 'a t = 'a Chan.t

  let create ?(label = "port") () = Chan.buffered ~label 16

  let send ?(words = 4) port v =
    charge_crossing ~words;
    Chan.send ~words port v

  let recv port =
    charge_crossing ~words:4;
    Chan.recv port

  let rpc ?(words = 4) port req =
    let reply = Chan.buffered ~label:"reply-port" 1 in
    send ~words port (req, reply);
    recv reply
end

module Sync = struct
  type ('a, 'b) t = ('a * 'b Chan.t) Chan.t

  let create ?(label = "l4-gate") () = Chan.rendezvous ~label ()

  (* the L4 fast path: one crossing into the kernel which
     direct-switches to the server, one crossing back with the reply;
     no copies beyond registers (small words) *)
  let charge_fast ~words =
    let eng = Engine.current () in
    let c = Engine.costs eng in
    Engine.charge eng (c.Cost.mode_switch + (words * c.Cost.msg_per_word))

  let call ?(words = 2) gate req =
    charge_fast ~words;
    let reply = Chan.buffered 1 in
    Chan.send ~words gate (req, reply);
    let r = Chan.recv reply in
    charge_fast ~words:2;
    r

  let serve gate handler =
    let rec loop () =
      let req, reply = Chan.recv gate in
      Chan.send reply (handler req);
      loop ()
    in
    loop ()
end
