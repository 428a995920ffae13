(** Virtual landmarks / PCA coordinates (Tang & Crovella, IMC 2003) —
    a third network-coordinate baseline (and alert substrate).

    Each node is first given its {e Lipschitz vector}: the vector of
    measured delays to [landmarks] landmark nodes.  Principal component
    analysis of these vectors yields a low-dimensional projection — the
    "virtual landmarks" — and the delay between two nodes is estimated
    as the scaled Euclidean distance between their projected
    coordinates, with the scale fitted by least squares against a
    sample of measured delays.

    Unlike Vivaldi this method is landmark-based and one-shot (no
    iteration), and unlike GNP it needs no non-linear optimization —
    useful as a cheap embedding to feed the TIV alert mechanism. *)

type config = {
  dim : int;  (** projected dimension (default 5) *)
  landmarks : int;  (** default 20 *)
  scale_sample : int;  (** measured pairs used to fit the scale (default 2000) *)
}

type t

val fit :
  ?config:config -> Tivaware_util.Rng.t -> Tivaware_delay_space.Matrix.t -> t
(** Raises [Invalid_argument] when there are fewer nodes than
    landmarks.  Nodes missing a landmark measurement get the landmark's
    mean delay imputed. *)

val predicted : t -> int -> int -> float
