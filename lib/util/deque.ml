type 'a t = {
  mutable buf : 'a option array;
  mutable head : int;  (* index of front element *)
  mutable size : int;
}

let create () = { buf = [||]; head = 0; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = Array.length t.buf

let index t i = (t.head + i) mod capacity t

(* the first push allocates two slots; each growth doubles *)
let grow t =
  let n = max 2 (capacity t * 2) in
  let buf = Array.make n None in
  for i = 0 to t.size - 1 do
    buf.(i) <- t.buf.(index t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.size = capacity t then grow t;
  t.buf.(index t t.size) <- Some x;
  t.size <- t.size + 1

let push_front t x =
  if t.size = capacity t then grow t;
  t.head <- (t.head + capacity t - 1) mod capacity t;
  t.buf.(t.head) <- Some x;
  t.size <- t.size + 1

let pop_front t =
  if t.size = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod capacity t;
    t.size <- t.size - 1;
    x
  end

let pop_back t =
  if t.size = 0 then None
  else begin
    let i = index t (t.size - 1) in
    let x = t.buf.(i) in
    t.buf.(i) <- None;
    t.size <- t.size - 1;
    x
  end

let peek_front t = if t.size = 0 then None else t.buf.(t.head)

let iter f t =
  for i = 0 to t.size - 1 do
    match t.buf.(index t i) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc
