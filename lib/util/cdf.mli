(** Empirical cumulative distribution functions.

    The paper reports most results as CDF curves; this module builds an
    empirical CDF from samples and exposes it both as a queryable function
    and as a printable series of (value, cumulative-fraction) points. *)

type t

val of_samples : float array -> t
(** Builds the empirical CDF of the samples.  Raises [Invalid_argument]
    on the empty array. *)

val eval : t -> float -> float
(** [eval t x] is the fraction of samples [<= x], in [0, 1]. *)

val points : ?max_points:int -> t -> (float * float) list
(** [(value, fraction)] pairs tracing the curve, downsampled evenly to at
    most [max_points] (default 50) so figures stay printable. *)
