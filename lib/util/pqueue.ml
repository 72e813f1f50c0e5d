(* Binary min-heap in three parallel arrays.  Sifting moves a hole
   rather than swapping, and every helper takes its operands as
   arguments, so neither [add] nor [pop] allocates except to grow. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
}

(* small: chaos runs thousands of short engines, each with a heap *)
let initial_capacity = 64

let nothing () = ()

let create () =
  { times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    thunks = Array.make initial_capacity nothing;
    size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let[@inline] before (t1 : int) (s1 : int) t2 s2 =
  t1 < t2 || (t1 = t2 && s1 < s2)

let grow t =
  let n = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.thunks <- extend t.thunks nothing

let[@inline] place t i time seq thunk =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.thunks.(i) <- thunk

let[@inline] move t ~src ~dst =
  place t dst t.times.(src) t.seqs.(src) t.thunks.(src)

let rec sift_up t i time seq thunk =
  let parent = (i - 1) / 2 in
  if i > 0 && before time seq t.times.(parent) t.seqs.(parent) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq thunk
  end
  else place t i time seq thunk

let rec sift_down t i time seq thunk =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i time seq thunk
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && before t.times.(r) t.seqs.(r) t.times.(l) t.seqs.(l)
      then r
      else l
    in
    if before t.times.(c) t.seqs.(c) time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq thunk
    end
    else place t i time seq thunk
  end

let add t ~time ~seq thunk =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq thunk

let min_time t =
  if t.size = 0 then invalid_arg "Pqueue.min_time: empty";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let top = t.thunks.(0) in
  let last = t.size - 1 in
  let time = t.times.(last) and seq = t.seqs.(last)
  and thunk = t.thunks.(last) in
  (* drop the vacated slot's reference so the closure can be freed *)
  t.thunks.(last) <- nothing;
  t.size <- last;
  if last > 0 then sift_down t 0 time seq thunk;
  top
