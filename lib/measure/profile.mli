(** Per-link network profiles for fault injection.

    The measurement plane's original fault model applied one global
    loss/jitter setting to every probe, which cannot reproduce the
    link-correlated error patterns real paths show: access links of
    poorly-connected hosts are lossy, long-haul inter-cluster paths are
    jittery, and TIV damage concentrates on specific edges.  A profile
    assigns each {e directed} link [(i, j)] its own fault parameters;
    the {!Fault} injector consults the profile on every wire attempt.

    Profiles are pure: parameter lookup never touches the injector's
    random stream, so a {!uniform} profile built from the old global
    rates reproduces the global model probe for probe under the same
    seed, and an all-zero profile never consults the generator at all
    (bit-identical to oracle mode).

    Profiles are valid by construction, so no consumer scans their
    links: {!uniform}, {!topology} and {!random} check what they are
    built from when they are created, and a {!make} function is checked
    on each link it yields.  Building an engine over any profile costs
    O(1) in the number of links. *)

type link = {
  loss : float;  (** per-attempt loss probability in [0, 1] *)
  jitter : float;
      (** multiplicative noise: measured RTT is
          [true_rtt * uniform(1 - jitter, 1 + jitter)], in [0, 1) *)
  outage : float;
      (** probability the directed link is down for the injector's
          whole lifetime, in [0, 1] (1 = certainly down) *)
  extra_delay : float;
      (** ms added to the true RTT before jitter (path detour /
          bufferbloat on that link), finite and >= 0 *)
}

val clean : link
(** All-zero link: lossless, jitter-free, always up, no extra delay. *)

type t

val link : t -> int -> int -> link
(** Parameters of the directed link [i -> j].  Self links are always
    {!clean}. *)

val uniform : ?name:string -> link -> t
(** Every directed link carries the same parameters — the back-compat
    constructor the engine builds from a global {!Fault.config}.
    Raises [Invalid_argument] naming [name] (default ["uniform"]) and
    the field when the link is out of range. *)

val of_rates : loss:float -> jitter:float -> t
(** [uniform] over [{ clean with loss; jitter }]. *)

val make : string -> (int -> int -> link) -> t
(** [make name f]: arbitrary per-link profile; [f i j] must be pure
    and total for all [i <> j] in range.  It is consulted on every wire
    attempt, and each link it yields is checked as it is drawn: an
    out-of-range field raises [Invalid_argument] from that probe,
    naming the profile, the link and the field ([Profile bad: link
    2->3: loss must be in [0, 1] (got 1.5)]).  Nothing is checked at
    creation, so building an engine over [make] reads no link. *)

val topology :
  loss:float ->
  jitter:float ->
  cluster_of:int array ->
  unit ->
  t
(** Topology-derived heterogeneity from cluster labels ([cluster_of.(i)]
    is node [i]'s cluster, [-1] = noise host), as produced by
    [Tivaware_topology.Generator] ([cluster_of]) or
    [Tivaware_delay_space.Clustering] ([label]).  Links touching a noise
    host model lossy access links ([3 * loss], capped); inter-cluster
    links model jittery long-haul paths ([2 * jitter], capped, half
    loss); intra-cluster links are comparatively clean ([loss / 4],
    [jitter / 4]).  Raises [Invalid_argument] naming the class and the
    field when one of the three class links is out of range. *)

val random :
  ?outage:float ->
  loss:float ->
  jitter:float ->
  seed:int ->
  unit ->
  t
(** Seeded heterogeneous profile: each directed link draws its loss and
    jitter uniformly from [[0, 2 * base)] (mean = base, so sweeps
    compare equal average severity against {!uniform}), and is down for
    the injector's lifetime with probability [outage] (default 0).
    Parameters depend only on [(seed, i, j)], never on query order.
    Raises [Invalid_argument] naming the field on a NaN or out-of-range
    base ([loss] and [outage] in [[0, 1]], [jitter] in [[0, 1)]); the
    draws are clamped, so every link is then in range. *)

val validate_link : string -> id:string -> link -> unit
(** [validate_link ctx ~id l] raises [Invalid_argument], as
    ["ctx: link id: field ..."], on a NaN or out-of-range loss, jitter,
    outage or extra delay: the range check every constructor applies. *)
