(** Small dense linear algebra.

    Just enough machinery for the IDES matrix-factorization baseline:
    Gaussian elimination with partial pivoting and linear least squares
    via the normal equations.  Matrices are row-major [float array array]
    and all functions work on copies. *)

exception Singular
(** Raised when a system has no unique solution (pivot below tolerance). *)

val lstsq : float array array -> float array -> float array
(** [lstsq a b] minimizes [||a x - b||_2] for an [m x n] matrix with
    [m >= n], solving the normal equations [aᵀa x = aᵀ b] with a small
    ridge term for stability.  Raises {!Singular} if the system is
    degenerate even after regularization. *)

val symmetric_top_eigenpairs :
  ?iterations:int -> float array array -> k:int -> (float * float array) list
(** [symmetric_top_eigenpairs c ~k] returns up to [k]
    (eigenvalue, unit eigenvector) pairs of the symmetric matrix [c] in
    decreasing eigenvalue order, by power iteration with deflation
    ([iterations] per pair, default 200).  Intended for covariance
    matrices (PSD); stops early when the residual spectrum vanishes. *)
