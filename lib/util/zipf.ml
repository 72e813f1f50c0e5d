type t = {
  n : int;
  theta : float;
  total : float;  (* sum of the weights 1 / (i + 1)^theta *)
  cdf : float array;  (* cdf.(i) = P(rank <= i) *)
}

let weight theta i = 1.0 /. (float_of_int (i + 1) ** theta)

let make ~n ~theta =
  assert (n > 0);
  (* the weights go into [cdf] first and are accumulated in place *)
  let cdf = Array.init n (weight theta) in
  let total = Array.fold_left ( +. ) 0.0 cdf in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; theta; total; cdf }

(* binary search for the first index with cdf >= u *)
let rec search (cdf : float array) u lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if cdf.(mid) >= u then search cdf u lo mid else search cdf u (mid + 1) hi
  end

let sample t rng = search t.cdf (Rng.float rng 1.0) 0 (t.n - 1)

let probability t rank =
  if rank < 0 || rank >= t.n then invalid_arg "Zipf.probability";
  weight t.theta rank /. t.total
