(** IDES: Internet Distance Estimation Service (Mao & Saul, IMC 2004),
    the matrix-factorization strawman of Section 4.2.

    IDES drops the metric-space constraint entirely: every node gets an
    {e outgoing} and an {e incoming} vector, and the delay from [i] to
    [j] is estimated by the inner product [out_i . in_j].  Because inner
    products need not satisfy the triangle inequality, IDES can in
    principle represent TIVs.

    Implementation: [landmarks] nodes are chosen at random; their
    pairwise delay matrix is factorized as [D ≈ X Yᵀ] by gradient
    descent (optionally with a non-negativity projection, the NMF
    variant).  Every other node then derives its vectors by linear least
    squares against its measured delays to the landmarks — exactly the
    two-phase architecture of the IDES paper. *)

type config = {
  dim : int;  (** vector dimensionality (default 10) *)
  landmarks : int;  (** default 20 *)
  iterations : int;  (** gradient steps for the landmark factorization *)
  learning_rate : float;
  nonnegative : bool;  (** project factors to [>= 0] (NMF variant) *)
}

type t

val fit :
  ?config:config -> Tivaware_util.Rng.t -> Tivaware_delay_space.Matrix.t -> t
(** Raises [Invalid_argument] when the matrix has fewer nodes than
    [landmarks]. *)

val predicted : t -> int -> int -> float
(** Symmetrized estimate [(out_i . in_j + out_j . in_i) / 2], floored at
    0. *)

val landmark_rmse : t -> float
(** Root-mean-square reconstruction error over the landmark matrix —
    a fitting-quality diagnostic. *)
