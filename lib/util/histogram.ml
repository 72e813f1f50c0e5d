(* Buckets: values < 64 are exact (buckets 0..63); beyond that, each
   power of two is split into [sub] sub-buckets.  Index computation is
   branch-light and total over non-negative ints.

   The buckets live in chunks of [sub]: chunks 0 and 1 hold the exact
   values, chunk [e - 4] the octave [2^e, 2^(e+1)).  A chunk is
   allocated the first time a value lands in it, so a histogram's
   memory follows the octaves its samples touch. *)

let sub_bits = 5
let sub = 1 lsl sub_bits
let linear_limit = 64

(* the top octave of a non-negative int starts at 2^(int_size - 2) *)
let nchunks = Sys.int_size - 5

type t = {
  chunks : int array array;  (** [[||]] until a sample lands in it *)
  mutable n : int;
  mutable total : float;
  mutable max_v : int;
  mutable min_v : int;
}

let create () =
  { chunks = Array.make nchunks [||]; n = 0; total = 0.0; max_v = 0;
    min_v = max_int }

let log2_floor v =
  (* v >= 1 *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Shifts rather than [* sub / 2^e]: the product overflows from
   e = 57 on. *)
let bucket_of v =
  if v < linear_limit then v
  else begin
    let e = log2_floor v in
    (* sub-bucket within [2^e, 2^(e+1)) *)
    let frac = (v - (1 lsl e)) lsr (e - sub_bits) in
    linear_limit + (((e - 6) * sub) + frac)
  end

let upper_bound_of_bucket b =
  if b < linear_limit then b
  else begin
    let b = b - linear_limit in
    let e = (b / sub) + 6 in
    let frac = b mod sub in
    (1 lsl e) - 1 + ((frac + 1) lsl (e - sub_bits))
  end

let record t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  let c = b lsr sub_bits in
  let chunk =
    let chunk = t.chunks.(c) in
    if Array.length chunk > 0 then chunk
    else begin
      let chunk = Array.make sub 0 in
      t.chunks.(c) <- chunk;
      chunk
    end
  in
  let i = b land (sub - 1) in
  chunk.(i) <- chunk.(i) + 1;
  t.n <- t.n + 1;
  t.total <- t.total +. float_of_int v;
  if v > t.max_v then t.max_v <- v;
  if v < t.min_v then t.min_v <- v

let count t = t.n

let total t = t.total

let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n

let max_value t = t.max_v

let min_value t = if t.n = 0 then 0 else t.min_v

let percentile t p =
  if t.n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    let rank = if rank < 1 then 1 else rank in
    (* an absent chunk counts zero, so skipping it cannot cross [rank] *)
    let rec go c i seen =
      if c >= nchunks then t.max_v
      else begin
        let chunk = t.chunks.(c) in
        if i >= Array.length chunk then go (c + 1) 0 seen
        else begin
          let seen = seen + chunk.(i) in
          if seen >= rank then
            Stdlib.min (upper_bound_of_bucket ((c lsl sub_bits) + i)) t.max_v
          else go c (i + 1) seen
        end
      end
    in
    go 0 0 0
  end

let merge a b =
  let chunk c =
    let x = a.chunks.(c) and y = b.chunks.(c) in
    if Array.length x = 0 then Array.copy y
    else if Array.length y = 0 then Array.copy x
    else Array.init sub (fun i -> x.(i) + y.(i))
  in
  { chunks = Array.init nchunks chunk;
    n = a.n + b.n;
    total = a.total +. b.total;
    max_v = Stdlib.max a.max_v b.max_v;
    min_v = Stdlib.min a.min_v b.min_v }
