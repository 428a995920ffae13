(** The paper's TIV severity metric (Section 2.1).

    Edge [AC] causes a triangle inequality violation in triangle [ABC]
    when [d(A,C) > d(A,B) + d(B,C)]; the {e triangulation ratio} of the
    violation is [d(A,C) / (d(A,B) + d(B,C)) > 1].  The severity of edge
    [AC] is the sum of its triangulation ratios over all violating
    intermediates [B], divided by the number of nodes [|S|]:

    [severity(AC) = (Σ_B ratio(A,B,C)) / |S|]  where the sum ranges over
    [B] with [d(A,C) > d(A,B) + d(B,C)].

    A severity of 0 means the edge causes no violation; larger is worse.
    Missing measurements are skipped (a [B] with an unknown leg cannot
    witness a violation). *)

type edge_stats = {
  severity : float;
  violations : int;  (** number of violating intermediates *)
  max_ratio : float;  (** worst triangulation ratio; 1.0 if none *)
  mean_ratio : float;  (** mean ratio over violations; 1.0 if none *)
}

val edge : Tivaware_delay_space.Matrix.t -> int -> int -> edge_stats
(** Severity and violation statistics for one edge.  Raises
    [Invalid_argument] if the edge itself is missing. *)

val edge_severity : Tivaware_delay_space.Matrix.t -> int -> int -> float

val triangulation_ratios :
  Tivaware_delay_space.Matrix.t -> int -> int -> float array
(** [triangulation_ratios m i j]: the ratio
    [d(i,j) / (d(i,b) + d(b,j))] for {e every} valid intermediate [b]
    (not just violating ones) — the distribution Figure 1 plots; values
    above 1 are the violations.  Raises [Invalid_argument] if the edge
    itself is missing. *)

val all : Tivaware_delay_space.Matrix.t -> Tivaware_delay_space.Matrix.t
(** Severity of every present edge, as a matrix aligned with the input
    (missing edges stay missing).  O(n³) but cache-friendly. *)

val all_with_counts :
  Tivaware_delay_space.Matrix.t ->
  Tivaware_delay_space.Matrix.t * (int * int * int) array
(** As {!all}, also returning per-edge violation counts
    [(i, j, count)]. *)

val worst_edges :
  Tivaware_delay_space.Matrix.t -> fraction:float -> (int * int) array
(** The [fraction] (e.g. [0.2]) of present edges with the highest
    severity, given a precomputed severity matrix. *)
