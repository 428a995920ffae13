(** GNP: Global Network Positioning (Ng & Zhang, INFOCOM 2002).

    The original landmark-based network coordinate system, included both
    as a second embedding substrate for the TIV alert mechanism and as a
    baseline against Vivaldi.  A fixed set of landmarks first position
    themselves by minimizing the sum of squared relative errors over
    landmark-to-landmark delays; each ordinary host then solves the same
    problem against its measured delays to the landmarks.  Both
    minimizations use Nelder–Mead, as in the GNP paper. *)

type config = {
  dim : int;  (** coordinate dimension (default 5) *)
  landmarks : int;  (** default 15 *)
  restarts : int;  (** Nelder–Mead restarts per fit, best kept *)
}

val default_config : config

type t

val fit :
  ?config:config -> Tivaware_util.Rng.t -> Tivaware_delay_space.Matrix.t -> t
(** Raises [Invalid_argument] when there are fewer nodes than
    landmarks. *)

val predicted : t -> int -> int -> float
(** Euclidean distance between fitted coordinates. *)
