(** Zipf-distributed rank sampling.

    Key popularity in storage and DHT workloads is classically
    Zipfian: the [r]-th most popular of [n] items is requested with
    probability proportional to [1 / r^s].  The sampler precomputes
    the cumulative distribution once ([O(n)] floats) and draws by
    binary search ([O(log n)] per sample), consuming exactly one
    [Rng.float] draw per sample so workloads stay replayable. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] builds a sampler over ranks [0 .. n-1] with
    exponent [s >= 0] ([s = 0] is the uniform distribution; larger [s]
    concentrates mass on low ranks).  Raises [Invalid_argument] when
    [n < 1] or [s] is negative or NaN. *)

val sample : t -> Rng.t -> int
(** A rank in [0, n), rank 0 most popular.  One generator draw. *)

val probability : t -> int -> float
(** The sampling probability of a rank: the closed form the sampler's
    empirical frequencies are checked against. *)
