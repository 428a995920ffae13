(** Deterministic pseudo-random number generation.

    All randomized components of the library draw from this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast,
    well-distributed, and splittable, which lets independent subsystems
    derive independent streams from one master seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). Requires [bound > 0]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gauss : t -> mean:float -> stddev:float -> float
(** Normal deviate (Box–Muller). *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1. /. rate]). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto deviate: [scale] is the minimum value, [shape] the tail index.
    Smaller shape gives a heavier tail. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate: [exp (gauss mu sigma)]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : ?len:int -> t -> 'a array -> unit
(** In-place Fisher–Yates shuffle of the first [len] elements (default:
    all of them); the draws are those of shuffling an array of [len]. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices t ~n ~k] is [k] distinct indices drawn uniformly from
    [0, n).  Requires [k <= n].  The result is in random order. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)
