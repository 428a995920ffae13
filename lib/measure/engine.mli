(** The probe engine: every delay lookup, mediated.

    Protocol layers (Vivaldi sampling, Meridian's recursive probing,
    the TIV alert, Chord PNS, the multicast overlay) historically read
    the delay matrix as a free, instantaneous, lossless oracle.  The
    engine interposes the measurement plane between them and the
    {!Oracle}:

    + a TTL'd, optionally capacity-bounded LRU {!Cache} (service mode)
      or none (on-demand mode),
    + per-node and engine-wide token-bucket {!Budget}s,
    + seeded {!Fault} injection (loss, jitter, outages) with a retry
      policy (fixed, exponential backoff, or adaptive),
    + probe accounting in the engine's metric registry ({!obs}),
      attributable per protocol label and read back as {!Probe_stats}
      views ({!stats}).

    The default configuration is the exact oracle model: no cache, no
    budget, no faults, no time charging — a probe is then a plain
    matrix lookup and the generator is never consulted, so existing
    experiments reproduce their seed results bit-for-bit when rewired
    through an engine.

    {2 Time model}

    Probe costs are expressed in the oracle's RTT unit — milliseconds
    throughout this repo — while the engine clock advances in logical
    {e seconds} (the unit budgets refill against and cache TTLs are
    written in).  A request's [cost] is what the issuing node waits
    for: the RTTs of delivered attempts, the {!Fault.config.timeout} of
    every unanswered one, and the backoff delays between retries.
    Cache hits cost zero.  With [charge_time = true] the engine
    converts each request's cost to seconds ([cost /. 1000.]) and
    advances its own clock by it, so budgets and TTLs age against what
    measurement actually costs.  Synchronous drivers additionally
    advance it per round; event-driven drivers slave it to the
    simulator clock via {!advance_to}. *)

type config = {
  fault : Fault.config;
  profile : Profile.t option;
      (** per-link network profile; [None] = a uniform profile built
          from the global [fault] rates (the historical model, probe
          for probe).  When present, the profile supplies every link's
          loss/jitter/outage/extra-delay and the [fault] record only
          contributes retries/policy/timeout/node-outage. *)
  churn : Churn.config option;
      (** seeded node up/down lifetimes; [None] = no churn.  The churn
          schedule follows the engine clock (every {!advance},
          {!advance_to} and charged probe), so event-driven drivers
          slaving the clock to a simulator get churn "for free". *)
  dynamics : Dynamics.config option;
      (** time-varying network conditions (diurnal loss/jitter
          modulation, seeded route-change events) layered over
          [profile] — or over the uniform profile built from the global
          [fault] rates when [profile] is [None].  Slaved to the engine
          clock exactly like churn; [None] = static conditions. *)
  budget : Budget.config option;  (** [None] = unlimited *)
  cache_ttl : float option;  (** [None] = on-demand (no cache) *)
  cache_capacity : int option;
      (** LRU entry bound for the cache; requires [cache_ttl].
          [None] = unbounded *)
  charge_time : bool;
      (** advance the engine clock by each request's measurement cost *)
  seed : int;  (** fault-injection stream seed *)
}

val default_config : config
(** Oracle model: no faults, no profile, no churn, no budget, no
    cache, no time charging, seed 0. *)

type t

val create : ?config:config -> Oracle.t -> t
(** Raises [Invalid_argument] with a descriptive message on an invalid
    config: non-positive or NaN [cache_ttl], [cache_capacity < 1] or
    given without a [cache_ttl], budget capacities below one token or
    negative/NaN rates ({!Budget.validate_config}), fault/retry
    parameters out of range ({!Fault.validate_config}), churn
    parameters out of range ({!Churn.validate_config}), dynamics
    parameters out of range ({!Dynamics.validate_config}).  Creation
    costs O(n) and reads no link of the profile: profiles are valid by
    construction ({!Profile}), and a {!Profile.make} link out of range
    raises, naming the link, from the probe that draws it. *)

val of_matrix : ?config:config -> Tivaware_delay_space.Matrix.t -> t
(** [create] over {!Oracle.of_matrix}; same validation. *)

val config : t -> config
val oracle : t -> Oracle.t
val size : t -> int

val fault : t -> Fault.t
(** The live fault injector. *)

val churn : t -> Churn.t option
(** The live churn model, when the config enables one.  Its schedule is
    driven by this engine's clock; churning nodes' up/down state
    overrides the static [fault.outage] draw. *)

val up : t -> int -> bool
(** Whether node [i] is up in the churn schedule at the engine's
    current time: the one liveness read every protocol and scenario
    layer uses.  Always [true] without churn, and for nodes outside
    the churning subset (a static [fault.outage] is a property of the
    wire, seen only as probes coming back [Down]). *)

val dynamics : t -> Dynamics.t option
(** The live dynamics model, when the config enables one.  Its clock is
    driven by this engine's clock; the {!Fault} injector reads every
    wire attempt's link parameters through it. *)

(** {2 Logical clock} *)

val now : t -> float
val advance : t -> float -> unit
(** Advance the clock by a non-negative number of seconds.  Raises
    [Invalid_argument] naming [dt] on a negative, infinite or [nan]
    step. *)

val advance_to : t -> float -> unit
(** Monotonic absolute set: earlier times are ignored.  Used to slave
    the engine clock to an event simulator.  Raises [Invalid_argument]
    on a [nan] time. *)

val clock_work : t -> links:int -> until:float -> float
(** The expected number of transitions the engine replays while its
    clock moves from 0 to [until]: churn toggles (each churning node
    flips twice per [mean_up + mean_down] on average) plus route
    changes on [links] directed links (a link replays its route flaps
    when probed, so [links] bounds the links a run can probe).  0
    without churn or route flaps.  Scenarios add it to the work they
    bound before a run. *)

(** {2 Probing} *)

type outcome =
  | Rtt of float  (** fresh measurement (jitter applied) *)
  | Cached of float  (** served from the cache; no probe issued *)
  | Denied  (** refused by the probe budget *)
  | Down  (** an endpoint is in outage; attempts burned *)
  | Lost  (** every attempt dropped *)
  | Unmeasured  (** the oracle has no measurement for the pair *)

type timed = {
  outcome : outcome;
  cost : float;
      (** measurement time in ms: delivered RTTs + timeouts + backoff
          delays; 0 for cache hits and first-attempt budget denials *)
}

val probe_timed : ?label:string -> t -> int -> int -> timed
(** [probe_timed t i j]: node [i] measures its RTT to [j].  Full path:
    cache lookup, then budget check ([Denied] costs nothing further),
    then up to [1 + retries] wire attempts through the fault injector,
    where the retry budget is sized at request start by the engine's
    {!Fault.retry_policy} (per-link loss estimate under [Adaptive]).
    Successful measurements are cached (service mode); capacity
    evictions land in [measure.cache.evicted] ({!Probe_stats.t.evicted}).  The budget is charged
    once per wire attempt, against node [i] and the global bucket.
    When [charge_time] is set the engine clock advances by
    [cost /. 1000.]. *)

val probe : ?label:string -> t -> int -> int -> outcome
(** [(probe_timed t i j).outcome]. *)

val rtt : ?label:string -> t -> int -> int -> float
(** {!probe} collapsed to a float: the measured RTT, or [nan] on
    [Denied | Down | Lost | Unmeasured] — exactly the shape protocol
    code expects from [Matrix.get], so callers fall back on [nan]. *)

val rtt_timed : ?label:string -> t -> int -> int -> float * float
(** [(value, cost)] — {!rtt}'s collapse plus the measurement cost in
    ms, for callers that schedule simulator events around probes. *)

val stats : t -> Probe_stats.t
(** The probe counters as they stand now, read from the [measure.*]
    series of {!obs}: an immutable view; call again after more probes.
    Two views taken around a phase diff it. *)

(** {2 Observability} *)

val obs : t -> Tivaware_obs.Registry.t
(** The engine's metric registry.  Created with the engine and updated
    on every probe: request/outcome/cache counters ([measure.*], the
    only store of probe counts — {!stats} reads them), per-plane probe
    and charged-time series ([measure.probes.sent{plane=...}],
    [measure.probe_ms{plane=...}]), and RTT/cost histograms.  The repair planes, TIV alert evaluation
    and Meridian queries record their [repair.*], [alert.*] and
    [meridian.*] series here too — those families are pre-registered at
    zero so every {!Tivaware_obs.Summary} carries the full schema.
    Serialize with {!Tivaware_obs.Summary.to_json}, stamping
    {!now} as the clock. *)

val register_plane : t -> string -> unit
(** Pre-register the per-plane series
    ([measure.probes.sent{plane=...}], [measure.probe_ms{plane=...}])
    for a plane label, so summaries written before the plane's first
    probe — or from a run where it never probes — still carry the full
    schema.  Planes that do probe are registered lazily as before;
    this only pins the schema ({!stats} lists a plane only once it has
    issued a probe). *)
