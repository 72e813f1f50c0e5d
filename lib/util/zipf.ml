(* Rejection-inversion (Hörmann & Derflinger, ACM TOMACS 6(3), 1996),
   the method of Apache Commons Math's and Rust rand_distr's Zipf
   samplers; the constants follow Commons Math.  Ranks are k = 1..n
   with weight h(k) = k^-theta.  A draw inverts the integral H of the
   continuous hat h(x) over (H(1.5) - 1, H(n + 0.5)], rounds to the
   nearest k and accepts k when u lies in k's share of the hat, which
   is exactly h(k) wide: so accepted draws follow the weights exactly,
   and the hat wastes little (about 0.1% of draws are redrawn at
   theta 0.99, 0.8% at 1.5). *)

type t = {
  n : int;
  theta : float;
  h_x1 : float;  (* H(1.5) - 1: the low end of the inverted range *)
  h_n : float;  (* H(n + 0.5): its high end *)
  s : float;  (* k - x <= s accepts k without evaluating H *)
  mutable total : float;
      (* sum of the n weights, for [probability]; nan until first used *)
}

(* log1p x / x and expm1 x / x, both 1 at x = 0 *)
let[@inline] log1p_over x =
  if Float.abs x > 1e-8 then Float.log1p x /. x
  else 1. -. (x *. (0.5 -. (x *. ((1. /. 3.) -. (0.25 *. x)))))

let[@inline] expm1_over x =
  if Float.abs x > 1e-8 then Float.expm1 x /. x
  else 1. +. (x *. 0.5 *. (1. +. (x /. 3. *. (1. +. (0.25 *. x)))))

let[@inline] h theta x = Float.exp (-.theta *. Float.log x)

(* H(x) = (x^(1-theta) - 1) / (1 - theta), and log x at theta = 1 *)
let[@inline] big_h theta x =
  let lx = Float.log x in
  expm1_over ((1. -. theta) *. lx) *. lx

(* the inverse of H; the clamp only absorbs rounding *)
let[@inline] big_h_inv theta u =
  let t = Float.max (-1.) (u *. (1. -. theta)) in
  Float.exp (log1p_over t *. u)

let make ~n ~theta =
  if n < 1 then invalid_arg "Zipf.make: n < 1";
  if not (theta >= 0. && theta < Float.infinity) then
    invalid_arg "Zipf.make: theta must be finite and >= 0";
  { n; theta; h_x1 = big_h theta 1.5 -. 1.;
    h_n = big_h theta (float_of_int n +. 0.5);
    s = 2. -. big_h_inv theta (big_h theta 2.5 -. h theta 2.);
    total = Float.nan }

let rec sample t rng =
  let u = t.h_n +. (Rng.float rng 1.0 *. (t.h_x1 -. t.h_n)) in
  let x = big_h_inv t.theta u in
  let k = Int.max 1 (Int.min t.n (int_of_float (x +. 0.5))) in
  let fk = float_of_int k in
  if fk -. x <= t.s || u >= big_h t.theta (fk +. 0.5) -. h t.theta fk then
    k - 1
  else sample t rng

let probability t rank =
  if rank < 0 || rank >= t.n then invalid_arg "Zipf.probability";
  if Float.is_nan t.total then begin
    let acc = ref 0.0 in
    for k = 1 to t.n do
      acc := !acc +. h t.theta (float_of_int k)
    done;
    t.total <- !acc
  end;
  h t.theta (float_of_int (rank + 1)) /. t.total
