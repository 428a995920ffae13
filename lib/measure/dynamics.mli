(** Time-varying network conditions layered over a {!Profile}.

    A static per-link profile cannot reproduce the two dynamics the
    paper's measurement studies observe on real paths: loss and jitter
    swing with the diurnal traffic cycle, and routes change mid-run,
    stepping a path's propagation delay to a new plateau.  A dynamics
    model wraps a base profile and re-derives every link's parameters
    from the current engine clock:

    - {e diurnal modulation}: loss and jitter are scaled by
      [1 + amplitude * sin(2 pi (t + phase) / period)] (clamped into
      valid ranges).  The modulation is deterministic and touches no
      random stream, so zero amplitude replays the base profile
      probe-for-probe.
    - {e route flaps}: each directed link carries an independent seeded
      Poisson schedule of route-change events; every event re-draws the
      link's additional [extra_delay] uniformly in [[0, max_extra]].
      The detour in force at time T is a pure function of
      (seed, link, T) — schedules are path-independent, exactly like
      {!Churn}.

    The {!Engine} owns the clock: it calls {!advance_to} on every clock
    movement and hands the model to the {!Fault} injector, which reads
    every wire attempt's parameters through {!link}, so every attempt
    sees the conditions of the instant it happens.  The view checks no
    link: a valid base profile under a valid config yields in-range
    parameters at every time (scaled rates are clamped, detours are
    non-negative), so wrapping costs nothing per link.  Outage is
    {e not} modulated (the injector memoizes per-link outage draws for
    its lifetime); time-varying reachability belongs to {!Churn}. *)

type diurnal = {
  period : float;  (** cycle length in logical seconds (> 0) *)
  loss_amplitude : float;  (** relative loss swing, in [0, 1] *)
  jitter_amplitude : float;  (** relative jitter swing, in [0, 1] *)
  phase : float;  (** cycle offset in logical seconds (finite) *)
}

val default_diurnal : diurnal
(** 240 s cycle, 0.8 loss and jitter amplitude, zero phase — a
    simulation-scaled day. *)

type route_flap = {
  rate : float;  (** mean route changes per link per second (finite, >= 0) *)
  max_extra : float;  (** detour re-draw bound in ms (finite, >= 0) *)
}

val default_route_flap : route_flap
(** One route change per link per 100 s on average, detours up to
    50 ms. *)

type config = {
  diurnal : diurnal option;
  route_flap : route_flap option;
  seed : int;  (** route-flap schedule seed, independent of fault/churn *)
}

val default : config
(** No diurnal cycle, no route flaps, seed 0 — wrapping with the
    default config replays the base profile bit-for-bit. *)

val validate_config : string -> config -> unit
(** Raises [Invalid_argument] with a [ctx]-prefixed message on NaN or
    out-of-range fields. *)

type t

val create : ?config:config -> Profile.t -> t
(** Wrap a base profile; the clock starts at 0.  Raises
    [Invalid_argument] on an invalid config. *)

val config : t -> config
val advance_to : t -> float -> unit
(** Advance the dynamics clock (monotonic; earlier times are ignored).
    Route-change schedules catch up lazily, per link, on the next
    parameter lookup. *)

val link : t -> int -> int -> Profile.link
(** The link's parameters under the conditions at the current clock:
    a live view the {!Fault} injector consults on every attempt.  In
    range whenever the base profile's link is. *)

val route_changes : t -> int
(** Route-change events applied so far on probed links (lazily
    materialized schedules only count once a link is looked up). *)
