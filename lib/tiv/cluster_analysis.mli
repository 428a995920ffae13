(** TIV severity by cluster structure (Figure 3 and related text).

    Reproduces the observation that edges within a major cluster cause
    fewer/milder violations than edges crossing clusters, including the
    in-text statistic that the average number of violations caused by
    within-cluster edges is much smaller than by cross-cluster edges
    (80 vs 206 in DS²). *)

type block = {
  row_cluster : int;  (** cluster index; [-1] is the noise cluster *)
  col_cluster : int;
  edges : int;
  mean_severity : float;
  p90_severity : float;
}

type t = {
  blocks : block list;  (** one entry per cluster pair, row <= col *)
  within_mean_violations : float;
  cross_mean_violations : float;
  within_mean_severity : float;
  cross_mean_severity : float;
}

val analyze_with :
  severity:Tivaware_delay_space.Matrix.t ->
  counts:(int * int * int) array ->
  Tivaware_delay_space.Clustering.assignment ->
  t
(** Per-block statistics from a precomputed severity matrix and
    violation counts ({!Severity.all_with_counts}). *)

val pp : Format.formatter -> t -> unit

val shade_matrix :
  severity:Tivaware_delay_space.Matrix.t ->
  Tivaware_delay_space.Clustering.assignment ->
  cells:int ->
  float array array
(** Downsampled [cells x cells] rendering of the cluster-reordered
    severity matrix (mean severity per cell), the numeric equivalent of
    Figure 3's gray-shade plot. *)
