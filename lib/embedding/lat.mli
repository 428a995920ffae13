(** LAT: localized adjustment terms over Euclidean coordinates (Lee,
    Zhang, Sahu & Saha, SIGMETRICS 2006), the second strawman of
    Section 4.2.

    Each node [x] keeps its Vivaldi coordinate [c_x] plus a scalar
    adjustment [e_x]; the predicted delay becomes

    [d̂(x, y) = ||c_x - c_y|| + e_x + e_y]

    where [e_x] is half the average signed residual of [x]'s
    measurements to a random sample [S]:

    [e_x = Σ_{y ∈ S} (d(x,y) - ||c_x - c_y||) / (2 |S|)].

    Adjustments can be negative; the predicted delay is floored at 0. *)

type t

val fit :
  ?sample_size:int ->
  Tivaware_util.Rng.t ->
  Tivaware_vivaldi.System.t ->
  t
(** Computes adjustments from each node's measured delays to
    [sample_size] (default 32) random nodes, using the system's current
    coordinates. *)

val predicted : t -> int -> int -> float
