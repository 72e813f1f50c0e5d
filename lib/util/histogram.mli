(** Log-bucketed latency histogram (HdrHistogram-style).

    Values (cycle counts) are recorded into buckets whose width grows
    geometrically, giving a bounded relative error on reported
    percentiles.  Sub-bucket resolution is fixed at 32 sub-buckets per
    power of two, bounding quantile error to ~3%.  Memory is
    proportional to the octaves (powers of two) the samples touch:
    each one costs 32 counters, allocated by its first sample. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] records a non-negative value.  Negative values are
    clamped to 0. *)

val record_n : t -> int -> int -> unit
(** [record_n t v n] records [v] with multiplicity [n]. *)

val count : t -> int

val total : t -> float
(** Sum of recorded values (exact for the recorded representatives). *)

val mean : t -> float

val max_value : t -> int

val min_value : t -> int

val percentile : t -> float -> int
(** [percentile t p] returns the upper bound of the bucket holding the
    p-th percentile (0 < p <= 100).  Returns 0 when empty. *)

val merge : t -> t -> t

val pp_summary : Format.formatter -> t -> unit
(** Prints count, mean, p50, p95, p99, max on one line. *)
