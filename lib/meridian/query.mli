(** Meridian's recursive closest-neighbor query (Section 3.1).

    A client asks a starting Meridian node for the participant closest
    to a target.  The current node [M] measures its delay [d] to the
    target, asks every ring member whose delay to [M] lies within
    [[(1-β)d, (1+β)d]] to probe the target, and forwards the query to
    the member reporting the smallest delay (the first in ring-member
    order on a tie).  With [Threshold]
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
    participants, as in the paper's Figure 12 narrative.

    One walk core implements the recursion; {!closest},
    {!closest_multi} and {!Online.closest} differ only in what a
    measurement is and when it happens. *)

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

(** {2 Event-driven driver}

    One query's walk, for drivers that decide {e when} each measurement
    happens ({!Online} schedules them on the simulator).  The hop rule,
    the acceptance window, the answer and the registry accounting are
    the walk's own, so every driver returns the same outcome for the
    same measurements.  Not intended for general use. *)

type walk

val walk :
  ?termination:termination ->
  Overlay.t ->
  Tivaware_measure.Engine.t ->
  start:int ->
  target:int ->
  walk
(** A fresh single-target walk from [start] (not validated). *)

val arrive : walk -> int -> float * float
(** [arrive w node]: the query reaches [node], which becomes current
    and visited and measures its delay to the target.  Returns
    [(delay, cost)] as {!probe}; [delay = nan] ends the walk. *)

val window : walk -> Overlay.member list
(** Ring members of the current node inside the acceptance window
    [[(1-beta) d, (1+beta) d]], in ring-member order. *)

val probe : walk -> int -> float * float
(** [(delay, cost)] of one node's measurement, through the engine on
    first use ({!Tivaware_measure.Engine.rtt_timed}) and from the
    query-local cache after that ([cost = 0]).  [nan] = unmeasurable. *)

val step : walk -> int option
(** The hop decision over the current window: fold the members'
    measurements in ring-member order, moving the best-seen answer on a
    strict improvement, skipping visited and unmeasurable members, and
    forward to the first strict minimum when the termination rule
    accepts it.  Probes any window member not yet measured. *)

val finish : walk -> outcome
(** The outcome so far, recorded on the engine registry
    ([meridian.query_hops], [meridian.query_probes], or
    [meridian.query_failures] when [chosen_delay = nan]). *)
