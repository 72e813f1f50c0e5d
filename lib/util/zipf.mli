(** Zipfian sampler over [\[0, n)].

    File-server workloads use this to model skewed popularity: a small
    set of hot files receives most operations, which is exactly the
    regime where a global lock or a single hot vnode becomes the
    bottleneck.  Sampling is by rejection-inversion (Hörmann &
    Derflinger, 1996): {!make} computes three constants whatever [n]
    is, and each {!sample} inverts a continuous hat over the ranks and
    accepts or redraws, one [Rng.float] per attempt, so a draw is an
    exact Zipf rank and a pure function of the generator. *)

type t

val make : n:int -> theta:float -> t
(** [make ~n ~theta] prepares a sampler over ranks [0..n-1] with skew
    exponent [theta] ([theta = 0] is uniform; typical skew is 0.8-1.2).
    Rank 0 is the most popular item.  O(1) time and space.
    @raise Invalid_argument if [n < 1], or if [theta] is negative or
    not finite. *)

val sample : t -> Rng.t -> int

val probability : t -> int -> float
(** [probability t rank] is the exact probability mass of [rank].  The
    first call sums the [n] weights, in O(n); later calls are O(1). *)
