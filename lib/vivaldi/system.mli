(** The Vivaldi decentralized network coordinate system (Dabek, Cox,
    Kaashoek, Morris — SIGCOMM 2004), as used throughout the paper.

    Each node holds a coordinate in a low-dimensional Euclidean space
    and a local error estimate.  Whenever a node measures the delay to a
    neighbor it moves along the spring force
    [(rtt - ||xi - xj||) * u(xi - xj)], with an adaptive timestep that
    weights confident neighbors more.  The paper embeds into 5-D
    Euclidean space with 32 random probing neighbors per node. *)

type timestep =
  | Constant of float  (** fixed delta, the original simple rule *)
  | Adaptive of { cc : float; ce : float }
      (** Dabek et al.'s adaptive rule; [cc]=[ce]=0.25 recommended *)

type config = {
  dim : int;  (** embedding dimension (paper: 5) *)
  timestep : timestep;
  neighbors_per_node : int;  (** paper: 32 random neighbors *)
  height : bool;
      (** height-vector model (Dabek et al.): each node carries a
          non-negative height [h] modelling its access link, and the
          predicted delay becomes [||x_i - x_j|| + h_i + h_j].  The
          paper's experiments use plain Euclidean coordinates
          ([height = false]); the variant is provided for ablations. *)
}

val default_config : config
(** 5-D, adaptive (0.25, 0.25), 32 neighbors, no height. *)

type t

val create : ?config:config -> Tivaware_util.Rng.t -> Tivaware_delay_space.Matrix.t -> t
(** Fresh system over the delay matrix: random small initial
    coordinates, random neighbor sets (the system keeps its own
    sub-generator; the passed one is advanced once).  Measurements go
    through a default (oracle-mode) {!Tivaware_measure.Engine}, so the
    behavior is exactly the idealized model. *)

val create_with_engine :
  ?config:config -> Tivaware_util.Rng.t -> Tivaware_measure.Engine.t -> t
(** As {!create}, but every observation probes through the given
    engine: loss and budget denial skip the update, jitter perturbs
    the sample.  Ground truth for the error statistics is the engine's
    delay backend ({!Tivaware_backend.Delay_backend.of_engine}), so any
    engine works — a matrix-backed one behaves exactly as before, and a
    lazy backend scales the system past dense-matrix sizes.  Prediction
    ratios are measured, not read: see
    {!Tivaware_tiv.Alert.probed_ratio} over {!engine} and
    {!predictor}. *)

val config : t -> config
val size : t -> int

val matrix : t -> Tivaware_delay_space.Matrix.t
(** The dense ground-truth matrix.  Raises [Invalid_argument] when the
    system runs over a non-dense backend — use {!backend} (and the
    sampled error statistics) there. *)

val backend : t -> Tivaware_backend.Delay_backend.t
(** The ground-truth delay backend evaluation reads. *)

val engine : t -> Tivaware_measure.Engine.t
(** The measurement plane observations go through ({!create} installs
    an oracle-mode engine; its metric registry still counts every
    probe, readable through {!Tivaware_measure.Engine.stats}). *)

val rng : t -> Tivaware_util.Rng.t
(** The system's private generator, for components (dynamic neighbor
    refresh, experiment drivers) that must stay deterministic with it. *)

val coord : t -> int -> Tivaware_util.Vec.t
(** The node's current coordinate (a copy). *)

val error_estimate : t -> int -> float
(** The node's current local error estimate in [0, ...]. *)

val predicted : t -> int -> int -> float
(** Euclidean distance between current coordinates. *)

val neighbors : t -> int -> int array
(** Current probing neighbor set (a copy). *)

val set_neighbors : t -> int -> int array -> unit
(** Replaces a node's probing neighbors (used by dynamic-neighbor
    Vivaldi).  Self-loops are rejected with [Invalid_argument]. *)

val neighbor_edges : t -> (int * int) list
(** All (node, neighbor) pairs, normalized to [i < j], deduplicated. *)

val observe : t -> int -> int -> unit
(** [observe t i j]: node [i] probes its delay to [j] through the
    engine and updates its coordinate (and error estimate).  No-op when
    the probe fails (missing measurement, loss, outage, budget
    denial). *)

val observe_rtt : t -> int -> int -> float -> unit
(** [observe_rtt t i j rtt] applies an already-measured sample (the
    event-driven protocol probes the engine itself so the same sample
    that timed the response updates the coordinate).  No-op on
    [nan]. *)

val reset_node : t -> int -> unit
(** Re-initializes one node's coordinate (small random position, error
    estimate back to 1) — what a node does when it rejoins after a
    failure and has lost its state. *)

val round : t -> unit
(** One simulation round: every node, in random order, probes one
    random neighbor.  The engine clock advances by at least one virtual
    second; with a time-charging engine ([charge_time = true]) a round
    whose probes cost more than a second takes what they cost, so
    {!Tivaware_measure.Engine.now} reads the measurement-aware
    convergence time. *)

val run : t -> rounds:int -> unit

val rounds_elapsed : t -> int

val movement : t -> Tivaware_util.Welford.t
(** Distribution of per-update coordinate displacements (ms per step),
    matching the paper's "movement speed" statistic. *)

val reset_movement : t -> unit

val absolute_errors : t -> float array
(** |predicted - measured| over all present edges at the current
    state.  Dense systems only (it iterates the full matrix); raises
    [Invalid_argument] otherwise — see {!sampled_relative_errors}. *)

val relative_errors : t -> float array
(** |predicted - measured| / measured over all present edges.  Dense
    systems only, as {!absolute_errors}. *)

val sampled_relative_errors :
  t -> Tivaware_util.Rng.t -> pairs:int -> float array
(** |predicted - measured| / measured over [pairs] uniformly sampled
    off-diagonal pairs (missing and sub-1e-9 ms measurements skipped) —
    the estimator that works on any backend, including lazy spaces too
    large to enumerate. *)

val predictor : t -> int -> int -> float
(** {!predicted} partially applied — the shape selection policies and
    the TIV alert take as their prediction source. *)
