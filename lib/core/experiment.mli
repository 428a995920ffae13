(** The neighbor-selection experiment methodology (Section 4.1).

    {b Predictor-based mechanisms} (Vivaldi, IDES, LAT, and their
    variants): a random subset of nodes are candidates, the rest are
    clients; each client picks the candidate its predictor claims is
    nearest and pays the percentage penalty relative to the measured
    optimum.  The experiment repeats over several candidate subsets and
    reports cumulative penalties.

    {b Meridian}: a random subset participates as Meridian nodes; every
    remaining node is a client that sends one closest-neighbor query to
    a random Meridian node.  Penalties are measured against the closest
    Meridian node; probe counts are accumulated to compare overheads. *)

type result = {
  penalties : float array;  (** one entry per successful client test *)
  failures : int;  (** clients skipped (missing measurements) *)
}

val run_predictor :
  Tivaware_util.Rng.t ->
  Tivaware_delay_space.Matrix.t ->
  ?runs:int ->
  candidate_count:int ->
  predict:(int -> int -> float) ->
  unit ->
  result
(** [run_predictor rng m ~candidate_count ~predict ()] with [runs]
    (default 5) different random candidate subsets.  [predict client
    candidate] may return [nan] to abstain from a candidate.  Raises
    [Invalid_argument] naming [candidate_count] unless
    [0 < candidate_count < size m]. *)

type meridian_result = {
  base : result;
  probes : int;  (** total online probes over all queries *)
  queries : int;
  hops_mean : float;
  restarts : int;
}

val run_meridian :
  Tivaware_util.Rng.t ->
  Tivaware_delay_space.Matrix.t ->
  ?runs:int ->
  ?termination:Tivaware_meridian.Query.termination ->
  ?fallback:(Tivaware_meridian.Overlay.t -> Tivaware_meridian.Query.fallback) ->
  ?engine:Tivaware_measure.Engine.t ->
  meridian_count:int ->
  build:
    (Tivaware_util.Rng.t -> int array -> Tivaware_meridian.Overlay.t) ->
  unit ->
  meridian_result
(** [run_meridian rng m ~meridian_count ~build ()]: per run, samples the
    Meridian subset, calls [build] to construct the overlay (hooks for
    filtered / TIV-aware construction), then queries once per client
    from a random start node.  Raises [Invalid_argument] naming
    [meridian_count] unless [1 < meridian_count < size m].

    Every query probes through [engine]
    ({!Tivaware_meridian.Query.closest}; default: an oracle-mode engine
    over [m]); the engine clock advances one logical second per query,
    queries whose start probe fails count as failures, and
    probe/penalty degradation under loss/jitter shows up in the result.
    [m] stays the ground truth: noisy measurements steer the choice,
    but the penalty charges the chosen node's true delay against the
    true optimum. *)
