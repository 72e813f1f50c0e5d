module Engine = Chorus.Engine
module Cost = Chorus_machine.Cost

type t = {
  capacity : int;
  mutable entries : (unit -> unit) list;  (** reversed *)
  mutable traps : int;
}

let create ?(batch = 32) () =
  if batch < 1 then invalid_arg "Flexsc.create: batch must be >= 1";
  { capacity = batch; entries = []; traps = 0 }

let flush t =
  match t.entries with
  | [] -> ()
  | entries ->
    let eng = Engine.current () in
    let c = Engine.costs eng in
    t.traps <- t.traps + 1;
    Engine.charge eng c.Cost.mode_switch;
    List.iter
      (fun syscall ->
        (* the kernel side reads the entry from the shared page *)
        Engine.charge eng c.Cost.cache_hit;
        syscall ())
      (List.rev entries);
    t.entries <- [];
    Engine.charge eng c.Cost.mode_switch

let submit t syscall =
  let eng = Engine.current () in
  let c = Engine.costs eng in
  (* writing the request into the shared syscall page *)
  Engine.charge eng (c.Cost.cache_miss / 2);
  t.entries <- syscall :: t.entries;
  if List.length t.entries >= t.capacity then flush t

let traps t = t.traps
