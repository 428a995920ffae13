(** Small dense float vectors for coordinate embeddings.

    Vectors are plain [float array]s; all operations allocate fresh
    results.  Dimensions must agree; this is enforced with assertions. *)

type t = float array

val zero : int -> t
val copy : t -> t
val dot : t -> t -> float
val dist : t -> t -> float
(** Euclidean distance. *)

val random_unit : Rng.t -> int -> t
(** Uniformly random direction (isotropic via Gaussian components). *)
