(** Synthetic Internet delay-space generator.

    Substitute for the measured data sets of the paper (DS², Meridian,
    p2psim, PlanetLab), which are not redistributable.  The model follows
    the structural findings of Zhang et al. (IMC 2006):

    - end hosts live in a few {e major clusters} (continents) plus a
      heavy-tailed {e noise} population of poorly-connected hosts;
    - a small router backbone carries traffic; base end-to-end delay is
      access + shortest backbone path + access, which is a metric
      (no TIV by construction);
    - real routes are {e inflated} relative to the best path by routing
      policy; inflation is per-destination-pair, heavy-tailed, and more
      common across clusters.  Inflation is the sole source of severe
      TIVs, exactly as argued in Section 1 of the paper;
    - small multiplicative measurement jitter produces the ubiquitous
      slight violations seen in every data set.

    All randomness flows from the given {!Tivaware_util.Rng.t}. *)

type cluster_spec = {
  fraction : float;  (** share of non-noise end nodes *)
  routers : int;  (** backbone routers inside the cluster *)
  intra_weight_lo : float;  (** min intra-cluster router-link RTT, ms *)
  intra_weight_hi : float;
  access_mu : float;  (** lognormal access RTT parameters *)
  access_sigma : float;
}

type params = {
  nodes : int;
  clusters : cluster_spec list;
  noise_fraction : float;  (** share of nodes that are noise hosts *)
  noise_access_shape : float;  (** Pareto access RTT for noise hosts *)
  noise_access_scale : float;
  noise_access_cap : float;  (** clamp on noise access RTT, ms *)
  inter_base_lo : float;  (** cross-cluster gateway RTT range, ms *)
  inter_base_hi : float;
  gateways_per_pair : int;  (** parallel gateway links per cluster pair *)
  extra_intra_edges : int;  (** intra-cluster links beyond the tree *)
  inflate_prob_intra : float;  (** P(inflated route), same cluster *)
  inflate_prob_inter : float;  (** P(inflated route), across clusters *)
  inflation_shape : float;  (** Pareto shape of (multiplier - 1) *)
  inflation_scale : float;  (** Pareto scale of (multiplier - 1) *)
  inflation_max : float;  (** multiplier cap *)
  detour_cap_ms : float;
      (** cap on the {e absolute} extra delay inflation may add: the
          effective multiplier is further bounded by
          [1 + detour_cap_ms / base].  Models the fact that a policy
          detour adds a bounded amount of path, so already-long routes
          cannot be inflated many-fold — this produces the paper's
          dip in TIV severity at the longest delays (Figures 4–8). *)
  jitter : float;  (** measurement jitter: uniform in [1-j, 1+j] *)
  missing_fraction : float;  (** fraction of pairs left unmeasured *)
}

val default : params
(** A DS²-like parameterization at 800 nodes. *)

type t = {
  matrix : Tivaware_delay_space.Matrix.t;  (** measured delays *)
  base : Tivaware_delay_space.Matrix.t;  (** metric base delays *)
  cluster_of : int array;  (** ground-truth cluster id, [-1] = noise *)
  params : params;
}

val generate : Tivaware_util.Rng.t -> params -> t
(** Raises [Invalid_argument] on inconsistent parameters (fractions not
    summing to ~1, too few nodes for the requested clusters, ...). *)
