(** Ring-membership misplacement census (Figure 13).

    For every ordered pair (Ni, Nj) with measured delay [dij], consider
    the nodes within [beta * dij] of Nj — nodes that, if the triangle
    inequality held, would have delay to Ni within
    [[(1-beta) dij, (1+beta) dij]] and hence land in the same or a very
    close ring.  The census counts the fraction that fall outside this
    window: those are ring-placement errors waiting to happen. *)

val misplaced_fraction_by_delay :
  Tivaware_delay_space.Matrix.t ->
  beta:float ->
  bin_width:float ->
  (float * float) list
(** [(bin_center, mean misplaced fraction)] series — the Figure 13
    curve for one [beta].  Each ordered measured pair with at least one
    node within [beta * dij] of Nj contributes its misplaced share to
    the bin of [dij]. *)
