(** Cleaning utilities for measured delay matrices.

    Real measurement data sets arrive with holes (failed probes) and
    pathological values (probe timeouts recorded as huge delays, queuing
    spikes).  These helpers implement the standard cleanups used by the
    delay-space literature without hiding TIVs: filling a missing entry
    with a shortest-path estimate is conservative with respect to the
    triangle inequality (it can never {e create} a violation on the
    filled edge). *)

val fill_missing_shortest_path : Matrix.t -> Matrix.t
(** Fills each missing entry with the shortest-path distance through
    measured edges; entries with no path at all stay missing. *)

val clamp_outliers : Matrix.t -> percentile:float -> Matrix.t
(** Caps every delay at the given percentile of all present delays
    (e.g. 99.9 to remove timeout artifacts).  Raises
    [Invalid_argument] for percentiles outside (0, 100]. *)

val drop_low_degree : Matrix.t -> min_degree:int -> Matrix.t * int array
(** Iteratively removes nodes with fewer than [min_degree] measured
    edges, then compacts indices.  Returns the compacted matrix and the
    mapping [new_index -> old_index]. *)

val missing_count : Matrix.t -> int
