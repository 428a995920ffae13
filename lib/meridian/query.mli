(** Meridian's recursive closest-neighbor query (Section 3.1).

    A client asks a starting Meridian node for the participant closest
    to a target.  The current node [M] measures its delay [d] to the
    target, asks every ring member whose delay to [M] lies within
    [[(1-β)d, (1+β)d]] to probe the target, and forwards the query to
    the member reporting the smallest delay.  With [Threshold]
    termination the query stops when no member improves by at least the
    factor [β]; with [Any_improvement] it continues while any strict
    improvement exists (the idealized "no termination condition" mode
    of Section 3.2.2).

    Probes go through a {!Tivaware_measure.Engine}: under its default
    (oracle) config a probe is a free ground-truth lookup, and loss,
    jitter, outages and budgets apply when configured.  Each distinct
    (node, target) measurement within a query is counted once (values
    are cached, as a real implementation would within one query).  The answer returned
    to the client is the best node observed among all probed
    participants, as in the paper's Figure 12 narrative. *)

type termination =
  | Threshold  (** stop unless the best member is within [beta * d] *)
  | Any_improvement  (** stop only when nothing strictly improves *)

type outcome = {
  chosen : int;  (** best Meridian node found for the target *)
  chosen_delay : float;  (** its measured delay to the target *)
  probes : int;  (** distinct online probes consumed *)
  hops : int;  (** query forwarding steps *)
  restarts : int;  (** fallback activations (TIV-aware mode) *)
  path : int list;  (** visited Meridian nodes, start first *)
}

type fallback =
  current:int -> target:int -> measured:float -> Overlay.member list
(** Invoked when the termination rule is about to stop the query at
    [current]; returns extra members to probe before the rule is
    re-evaluated once.  Used by {!Tiv_aware}. *)

val closest :
  ?termination:termination ->
  ?fallback:fallback ->
  Overlay.t ->
  Tivaware_measure.Engine.t ->
  start:int ->
  target:int ->
  outcome
(** [closest overlay engine ~start ~target].  Default termination is
    [Threshold] with the overlay's [beta].  Every probe pays the
    measurement plane: loss, jitter, outages and budget denials make
    nodes unmeasurable for the rest of the query.  When the start
    node's own probe of the target fails (or the pair is unmeasurable)
    the query returns immediately with [chosen_delay = nan] and counts
    a [meridian.query_failures] in the engine registry, so drivers
    under injected faults degrade gracefully.  Raises
    [Invalid_argument] when [start] is not a Meridian node. *)

val optimal :
  Overlay.t -> Tivaware_backend.Delay_backend.t -> target:int -> (int * float) option
(** Ground truth: the Meridian node with the smallest measured delay to
    the target ([None] if the target has no measured Meridian edge). *)

(** {2 Multi-target queries}

    The original Meridian system also solves {e central leader
    election}: find the participant minimizing the {e maximum} delay to
    a set of targets.  The recursion is the same with the max-norm in
    place of the single delay; TIVs disturb it the same way. *)

val closest_multi :
  ?termination:termination ->
  Overlay.t ->
  Tivaware_measure.Engine.t ->
  start:int ->
  targets:int list ->
  outcome
(** [closest_multi overlay engine ~start ~targets]: [chosen_delay] is
    the max-norm delay of the chosen node to the target set.  A failed
    probe to any target makes the probing node ineligible as a
    candidate, and a failed start measurement returns
    [chosen_delay = nan].  Raises [Invalid_argument] on an empty target
    list or a non-Meridian start. *)

val optimal_multi :
  Overlay.t ->
  Tivaware_backend.Delay_backend.t ->
  targets:int list ->
  (int * float) option
(** Brute-force best max-norm participant. *)

(** {2 Protocol building blocks}

    Shared with {!Online}, which replays the same protocol over the
    event simulator.  Not intended for general use. *)

type probe_state

val make_probe_state : Tivaware_measure.Engine.t -> target:int -> probe_state

val probe : probe_state -> int -> float
(** One online probe from a node to the target: counted once per query,
    cached, tracks the best node seen.  [nan] = unmeasurable. *)

val probe_timed : probe_state -> int -> float * float
(** As {!probe}, plus the measurement cost in ms charged on the issuing
    path ({!Tivaware_measure.Engine.rtt_timed}); 0 when the query-local
    cache already holds the value. *)

val probe_cached : probe_state -> int -> bool
(** Whether a probe result is already cached (a cached probe costs no
    simulated time). *)

val probe_count : probe_state -> int
val best_seen : probe_state -> int * float

val eligible_members : Overlay.t -> int -> float -> Overlay.member list
(** Ring members of a node whose delay lies within the acceptance
    window [[(1-beta) d, (1+beta) d]]. *)

val accepts : termination -> beta:float -> d:float -> candidate_delay:float -> bool
(** The forwarding rule: whether a candidate at [candidate_delay] from
    the target justifies continuing from a node at distance [d]. *)

val hop_edges : float array
(** Bucket edges of the [meridian.query_hops] histogram (shared with
    the event-driven {!Online} driver so both record into the same
    series). *)
