(** Meridian ring geometry (Wong, Slivkins & Sirer, SIGCOMM 2005).

    Each Meridian node organizes its members into concentric,
    non-overlapping rings with exponentially increasing radii: ring [i]
    ([1]-based) spans [(alpha * s^(i-1), alpha * s^i]]; everything
    beyond the outermost finite ring falls into ring [rings] (the last
    ring's outer radius is effectively infinite). *)

type config = {
  alpha : float;  (** innermost ring outer radius, ms (paper: 1) *)
  s : float;  (** multiplicative radius factor (paper: 2) *)
  rings : int;  (** number of rings (paper: 11) *)
  k : int;  (** max primary members per ring (paper: 16) *)
  l : int;  (** secondary slots per ring, used only when TIV-aware dual
                placement overflows a ring (paper: 4) *)
  beta : float;  (** query acceptance threshold (paper: 0.5) *)
}

val default_config : config
(** alpha=1, s=2, rings=11, k=16, l=4, beta=0.5. *)

val unlimited_config : int -> config
(** [unlimited_config n]: capacity large enough that all [n] members fit
    in any ring — the "use all other Meridian nodes as ring members"
    idealized setting of Section 3.2.2. *)

val ring_of : config -> float -> int
(** [ring_of cfg delay] is the 1-based ring index for a member at
    [delay] ms; delays [<= alpha] map to ring 1, delays beyond the
    outermost boundary map to ring [rings]. *)
