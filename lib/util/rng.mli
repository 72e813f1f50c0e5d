(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic decision in the simulator draws from an explicit
    [Rng.t] so that a run is a pure function of its seed.  SplitMix64 is
    used because it is tiny, fast, passes BigCrush, and supports cheap
    stream splitting, which lets independent subsystems (placement,
    failure injection, workload generation) consume independent streams
    derived from one master seed. *)

type t

val make : int -> t
(** [make seed] creates a generator from a 63-bit seed. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** [bits64 t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].  [bound]
    must be positive.  Uses rejection sampling, so the result is exactly
    uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] returns a uniform boolean. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the
    given mean (inter-arrival times of Poisson processes). *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
