module Svc = Chorus_svc.Svc

type req = Alloc | Free of int

type resp = Block of int | Empty | Done

type t = {
  eps : (req, resp) Svc.t array;
  per : int;  (** blocks per group (last group may own more) *)
  mutable outstanding : int;
}

let serve_group ep ~first ~count =
  (* private free list: no locks, the message loop is the mutual
     exclusion.  The blocks never handed out are [next, first + count);
     freed blocks queue behind them, so a group hands out its fresh
     blocks in ascending order, then freed ones in the order they were
     freed, and its list costs O(1) words until blocks are freed *)
  let next = ref first and freed = Queue.create () in
  Svc.serve ep (fun req ->
      match req with
      | Alloc when !next < first + count ->
        incr next;
        Block (!next - 1)
      | Alloc -> (
        match Queue.take_opt freed with Some b -> Block b | None -> Empty)
      | Free b ->
        Queue.push b freed;
        Done)

let start ?(groups = 8) ~nblocks () =
  if groups < 1 || nblocks < groups then invalid_arg "Cgalloc.start";
  let per = nblocks / groups in
  let eps =
    Array.init groups (fun i ->
        let ep =
          Svc.create ~subsystem:"cgalloc"
            ~label:(Printf.sprintf "cg-%d" i) ()
        in
        let first = i * per in
        let count = if i = groups - 1 then nblocks - first else per in
        ignore
          (Chorus.Fiber.spawn ~label:(Printf.sprintf "cg-%d" i) ~daemon:true
             (fun () -> serve_group ep ~first ~count));
        ep)
  in
  { eps; per; outstanding = 0 }

let groups t = Array.length t.eps

let alloc t ~hint =
  let g = Array.length t.eps in
  let start = ((hint mod g) + g) mod g in
  let rec try_group i =
    if i >= g then None
    else
      match Svc.call t.eps.((start + i) mod g) Alloc with
      | Block b ->
        t.outstanding <- t.outstanding + 1;
        Some b
      | Empty -> try_group (i + 1)
      | Done -> assert false
  in
  try_group 0

let free t b =
  (* blocks are range-partitioned: return to the home group *)
  let home = min (Array.length t.eps - 1) (b / t.per) in
  match Svc.call t.eps.(home) (Free b) with
  | Done -> t.outstanding <- t.outstanding - 1
  | Block _ | Empty -> assert false

let allocated t = t.outstanding
