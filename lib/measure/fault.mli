(** Deterministic, seeded fault injection and retry policy for probes.

    Models the failure modes that separate real measurement from an
    oracle (cf. TimeWeaver's opportunistic, noisy measurements):
    per-attempt {e loss}, multiplicative {e jitter} on the measured
    RTT, whole-node {e outages}, and — through a per-link
    {!Profile} — link-correlated heterogeneity: each directed link can
    carry its own loss, jitter, outage and extra-delay parameters, and
    the retry machinery estimates loss {e per link} rather than per
    node.  All randomness is drawn from the injector's own generator,
    so a fixed seed and probe sequence reproduce the exact same
    faults — and a zero-fault [Fixed] config never consults the
    generator, keeping fault-free runs bit-identical to the oracle
    path.  A {!Profile.uniform} profile built from the global config
    rates draws the same stream as the historical global model, so it
    is probe-for-probe identical under the same seed.

    All delays are in the oracle's RTT unit (milliseconds by
    convention); the {!Engine} converts to logical seconds when it
    charges its clock. *)

type backoff = {
  base : float;  (** delay before the first retransmission, ms *)
  factor : float;  (** multiplier per further retry (>= 1) *)
  delay_jitter : float;
      (** uniform ± fraction applied to each backoff delay, in [0, 1) *)
}

val default_backoff : backoff
(** 100 ms base, factor 2, no delay jitter. *)

type retry_policy =
  | Fixed  (** immediate retransmit, always up to [retries] *)
  | Backoff of backoff
      (** up to [retries] retransmissions, exponentially delayed *)
  | Adaptive of { backoff : backoff; target_failure : float }
      (** the per-link loss-rate estimate sizes each request's retry
          budget: just enough retries that the residual failure
          probability drops below [target_failure], never more than
          [retries].  Links seeing no loss stop retrying entirely. *)

val adaptive : ?backoff:backoff -> ?target_failure:float -> unit -> retry_policy
(** [Adaptive] with {!default_backoff} and [target_failure = 0.01]. *)

type config = {
  loss : float;  (** per-attempt loss probability in [0, 1) *)
  jitter : float;
      (** multiplicative noise: measured RTT is
          [true_rtt * uniform(1 - jitter, 1 + jitter)] *)
  outage : float;  (** fraction of nodes down for the injector's lifetime *)
  retries : int;  (** max extra attempts after a lost probe (>= 0) *)
  policy : retry_policy;  (** how (and how often) retries are issued *)
  timeout : float;  (** ms a prober waits on an unanswered attempt *)
}

val default : config
(** No loss, no jitter, no outages, no retries, [Fixed] policy,
    3000 ms timeout — the oracle model. *)

val validate_config : string -> config -> unit
(** [validate_config ctx c] raises [Invalid_argument] with a
    [ctx]-prefixed descriptive message on any out-of-range field. *)

type t

val create :
  ?config:config ->
  ?profile:Profile.t ->
  ?dynamics:Dynamics.t ->
  Tivaware_util.Rng.t ->
  n:int ->
  t
(** The outage set ([floor (outage * n)] distinct nodes) is drawn
    immediately so it is fixed for the injector's lifetime.  When
    [profile] is given it supplies every link's loss/jitter/outage/
    extra-delay (the config's [loss] and [jitter] then only describe
    the legacy global rates and are not consulted); [dynamics] instead
    supplies them through {!Dynamics.link}, over the model's own base
    profile; with neither, a {!Profile.uniform} profile is built from
    the config, reproducing the global model exactly.  Creation costs
    O(n) and reads no link: profiles are valid by construction
    ({!Profile}), so an out-of-range {!Profile.make} link raises from
    the probe that draws it.  Raises [Invalid_argument] on an invalid
    config ({!validate_config}) or when both [profile] and [dynamics]
    are given. *)

val config : t -> config

val link : t -> int -> int -> Profile.link
(** The parameters of the directed link [i -> j] under the current
    conditions. *)

val node_down : t -> int -> bool
(** Whether node [i] is in outage.  [i] must be in [0 .. n-1]; an
    index outside raises [Invalid_argument]. *)

val set_down : t -> int -> bool -> unit
(** Force a node in or out of outage.  The churn schedule's hook:
    {!Churn.drive} is its one caller in the library, so the engine's
    churn is the only writer of node up/down (tests set it by hand).
    {!Churn.drive} writes a churning node only when it toggles, so
    setting one by hand lasts until that node's next toggle.  Raises [Invalid_argument], naming the node, when it is
    outside [0 .. n-1]. *)

val link_down : t -> int -> int -> Profile.link -> bool
(** [link_down t i j lk]: whether the directed link [i -> j], whose
    parameters [lk] are [link t i j], is in outage for the injector's
    lifetime.  Fractional {!Profile.link.outage} rates are resolved by
    a memoized draw that is deterministic in [(seed, i, j)] and never
    consumes the main fault stream. *)

type attempt =
  | Delivered of float  (** jittered RTT sample (extra delay included) *)
  | Dropped

val attempt : t -> int -> int -> rtt:float -> attempt
(** One wire attempt on the directed link [i -> j] whose true RTT is
    [rtt].  Draws loss first, then jitter, so loss and jitter streams
    stay aligned across profiles with equal parameters; the link's
    [extra_delay] is added to the RTT before jitter. *)

val attempt_into : t -> Profile.link -> rtt:float -> into:float array -> bool
(** Non-allocating {!attempt} for the probe hot path, on a link whose
    parameters the caller looked up once ([link t i j]; the engine
    does so once per request, since its clock does not move between a
    request's attempts): [true] means delivered, with the sample
    stored in [into.(0)] (unboxed — [into] must have length >= 1);
    [false] means dropped and [into] is untouched.  Consumes the
    generator exactly as {!attempt} does, so the two are
    interchangeable draw for draw. *)

(** {2 Per-link loss estimation and retry budgets} *)

val record_outcome : t -> int -> int -> lost:bool -> unit
(** Feed one wire-attempt outcome observed by source node [i] probing
    [j] into the loss-rate estimators (a prober cannot distinguish loss
    from a peer outage, so both count as lost).  Updates both the
    directed link's EWMA and the source node's aggregate EWMA; an
    out-of-range [i] or [j] is ignored.  The estimate's only reader is
    {!retry_budget}, and only under [Adaptive], so the {!Engine} feeds
    outcomes only to an [Adaptive] injector: under [Fixed] and
    [Backoff] the estimate stays 0.  Each directed link first observed
    adds one table entry, so the state grows with the number of
    distinct links probed. *)

val estimated_loss : t -> int -> int -> float
(** The directed link's current loss-rate estimate in [0, 1] (0 before
    any observation).  The per-link EWMA is shrunk toward the source
    node's aggregate estimate in proportion to the link's own sample
    count, so a cold link inherits its prober's experience while a
    well-observed link is judged on its own record. *)

val retry_budget : t -> int -> int -> int
(** Retries the policy grants a request issued by node [i] toward [j]:
    [config.retries] under [Fixed]/[Backoff]; under [Adaptive], the
    smallest [r] with [loss_est^(r+1) <= target_failure], capped at
    [config.retries]. *)

val backoff_delay : t -> attempt:int -> float
(** Delay (ms) the prober waits before wire attempt number [attempt]
    (1 = first retransmission): 0 under [Fixed], else
    [base * factor^(attempt-1)], jittered when [delay_jitter > 0]
    (which draws from the injector's generator). *)
