(** Zipfian sampler over [\[0, n)].

    File-server workloads use this to model skewed popularity: a small
    set of hot files receives most operations, which is exactly the
    regime where a global lock or a single hot vnode becomes the
    bottleneck.  Sampling is by inverse transform over the precomputed
    CDF (O(log n) per sample, deterministic given the generator). *)

type t

val make : n:int -> theta:float -> t
(** [make ~n ~theta] prepares a sampler over ranks [0..n-1] with skew
    exponent [theta] ([theta = 0] is uniform; typical skew is 0.8-1.2).
    Rank 0 is the most popular item. *)

val sample : t -> Rng.t -> int

val probability : t -> int -> float
(** [probability t rank] is the exact probability mass of [rank]. *)
