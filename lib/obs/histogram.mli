(** A fixed-bucket histogram.

    Buckets are defined by a strictly increasing array of finite upper
    edges; an observation lands in the first bucket whose edge is at or
    above it (upper-inclusive, Prometheus-style), or in the implicit
    overflow bucket past the last edge.  Cheap enough for the probe hot
    path: one binary search and two stores per observation. *)

type t

val create : edges:float array -> t
(** Raises [Invalid_argument] when [edges] is empty, non-finite or not
    strictly increasing. *)

val observe : t -> float -> unit
(** NaN observations are dropped (they carry no magnitude to bin) and
    tallied in {!dropped}; infinities land in the overflow bucket. *)

val count : t -> int
(** Observations binned (dropped NaNs excluded). *)

val dropped : t -> int
val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile ([q] in [0, 1],
    [Invalid_argument] otherwise) from the bucket counts: the rank
    [q * count] is located in the cumulative distribution and linearly
    interpolated within its bucket (mass assumed uniform over the
    bucket's span; the first bucket spans from [min 0 (first edge)]).
    A rank landing in the overflow bucket reports the last finite edge
    — a lower bound, see {!quantile_label}.  [nan] when the histogram is
    empty. *)

val quantile_label : decimals:int -> t -> float -> string
(** {!quantile} printed with [decimals] decimals: ["-"] when the
    histogram is empty, and prefixed [">"] when the rank lands in the
    overflow bucket, where the last edge is only a lower bound
    (e.g. [">50000.0"]).  [Invalid_argument] for [q] outside [0, 1]. *)

val edges : t -> float array
(** A copy of the upper edges. *)

val counts : t -> int array
(** A copy of the per-bucket counts; length [Array.length edges + 1],
    last entry the overflow bucket. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram over the union of both observation
    streams: bucket counts, totals, sums and dropped tallies add.
    Because {!quantile} reads only bucket counts, a quantile of the
    merge equals the quantile of one histogram fed both streams —
    the property {!Tivaware_obs.Merge} relies on for per-domain summary
    merging.  Raises [Invalid_argument] when the bucket edges differ
    (merging histograms of different shape is a schema bug, not data). *)
