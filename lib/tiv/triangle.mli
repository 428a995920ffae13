(** Triangle census of a delay space.

    Supports the in-text claim that ~12% of all triangles in the DS²
    data violate the triangle inequality. *)

type census = {
  triangles : int;  (** triangles with all three edges measured *)
  violating : int;  (** triangles in which some edge exceeds the other two *)
  fraction : float;
  worst_ratio : float;  (** largest triangulation ratio seen; 1.0 if none *)
}

val census : Tivaware_delay_space.Matrix.t -> census
(** Exact O(n³) count over all measured triangles. *)
