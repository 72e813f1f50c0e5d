(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would box every new state, while [get_int64_le]/[set_int64_le] on
   the inlined [next] keep an integer draw allocation-free. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let make seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: one additive step plus two xor-shift
   multiplies (Steele, Lea & Flood, OOPSLA 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

(* rejection sampling on 62 bits to avoid modulo bias *)
let rec draw t bound =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw t bound else v

let int t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then
    (* power of two: mask the low bits *)
    Int64.to_int (next t) land (bound - 1)
  else draw t bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits into [0,1) *)
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -. mean *. log1p (-. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
