(** A Chord-like structured overlay with pluggable proximity neighbor
    selection (PNS).

    The paper's introduction motivates TIV awareness with exactly this
    workload: structured overlays pick finger-table entries among
    id-space candidates by network proximity, and a TIV-confused
    proximity estimate inflates every lookup.

    The overlay is built statically over a node count (the paper's
    experiments are delay-space simulations); churn is handled by
    {!heal_engine} and {!Stabilizer}.  Each node gets:

    - a successor pointer (next node clockwise in id space);
    - one finger per power-of-two offset [2^k].  With plain Chord the
      finger is the first node at or after [id + 2^k]; with PNS it is
      the {e proximity-best} node, under a caller-supplied delay
      predictor, among the first [candidates] nodes of the arc
      [[id + 2^k, id + 2^(k+1))] (Gummadi et al.'s PNS(k)).

    Lookups use greedy clockwise routing and report both hop count and
    accumulated measured network latency.

    Two rules live in one place each and are shared:
    - {e The finger choice.}  {!build} and the {!Stabilizer}'s
      fix-fingers choose a finger the same way, with the pick rule
      ({!Tivaware_util.Stats.argmin}: the first strict minimum, [nan]
      skipped) over the arc candidates.  The cost is [predict] at build
      time and a probe in the stabilizer; with no finite cost the arc's
      first node is the finger, and an empty arc falls back to plain
      Chord's.
    - {e The liveness-belief rule.}  Every probe {!heal_engine} and the
      {!Stabilizer} make updates the shared failure belief
      ({!believed_dead}) the router consults: an answer clears it, a
      timed-out probe ([Down]/[Lost]) sets it, and an unmeasurable pair
      or a budget denial says nothing about the node's liveness, so the
      gossiped belief never marks a node that is up (false suspicion is
      still possible under loss, as in any real failure detector). *)

type t

val build :
  ?candidates:int ->
  ?successor_list:int ->
  ?predict:(int -> int -> float) ->
  int ->
  t
(** [build n] constructs the overlay over nodes [0 .. n-1]; id-space
    structure needs only the node count.  Without [predict], plain
    Chord fingers.  With [predict], PNS fingers chosen among
    [candidates] (default 8) arc candidates by smallest predicted
    delay; candidates whose prediction is [nan] are skipped (falling
    back to the first candidate).  The predictor decides what PNS
    costs: [Delay_backend.query b] reads ground truth for free,
    [Engine.rtt ~label engine] probes through the measurement plane
    (budgets, faults and cache all apply; a failed probe reads as
    [nan]).  Every node also records its [successor_list] (default 4,
    capped at [n - 1]) next nodes clockwise — the healing candidates
    {!heal_engine} falls back on when a successor dies.  Raises
    [Invalid_argument] when [n < 2], [successor_list < 1] or
    [candidates < 1]. *)

val size : t -> int
val node_id : t -> int -> int
(** Identifier of a node index. *)

val successor : t -> int -> int
(** Node index of the current successor on the ring (the structural
    next node clockwise, until {!heal_engine} reroutes it past a
    failure). *)

val successor_list : t -> int -> int array
(** The node's healing candidates: its next nodes clockwise in id
    space, nearest first. *)

val fingers : t -> int -> int array
(** Finger node indices (deduplicated, unordered). *)

val believed_dead : t -> int -> bool
(** Healing's current belief about the node.  Always [false] until a
    {!heal_engine} pass marks it; routing skips believed-dead fingers
    and owners. *)

val predecessor : t -> int -> int
(** Node index of the current predecessor belief, [-1] when unknown.
    Structural (the previous node clockwise) at build; maintained by
    the stabilizer's notify / check-predecessor exchanges. *)

type lookup = {
  hops : int;
  latency : float;  (** sum of measured delays along the route, ms *)
  route : int list;  (** node indices, source first *)
  owner : int;  (** node responsible for the key *)
}

val lookup :
  t -> Tivaware_backend.Delay_backend.t -> source:int -> key:int -> lookup
(** Greedy clockwise routing from [source] to the node owning [key] —
    the first node at or after [key] {e not believed dead}, so once
    healing has converged a lookup never terminates at a failed node.
    Believed-dead fingers are skipped en route.  Hop latencies are the
    backend's answers; hops that read [nan] contribute 0 latency (the
    overlay link exists regardless).  Raises [Invalid_argument] on a
    bad source. *)

val owner_of : t -> int -> int
(** The node index whose id is the first at or after [key], ignoring
    liveness (the structural owner). *)

val live_owner_of : t -> int -> int
(** The first node at or after [key] not believed dead — what {!lookup}
    routes to.  Equal to {!owner_of} until healing marks failures. *)

(** {2 Successor-list healing} *)

type heal = {
  checked : int;  (** liveness probes issued by the pass *)
  rerouted : int;  (** successor pointers moved to a live candidate *)
  marked_dead : int;  (** nodes newly believed dead *)
  revived : int;  (** nodes whose death belief was cleared *)
}

val heal_engine : ?label:string -> t -> Tivaware_measure.Engine.t -> heal
(** One healing pass against the engine's current churn state: every
    node that is itself up walks its successor list in clockwise order,
    probing each candidate through the engine until one answers; the
    first live candidate becomes its successor, and every probe
    updates the failure belief by the liveness-belief rule above (a
    candidate that says nothing is skipped).  A revived node is
    re-probed — and its belief cleared — by its predecessor on the next
    pass, because it is always the first entry of that predecessor's
    list.  Probes are charged and accounted under [label] (default
    ["dht-repair"]). *)

type chord := t

(** {2 Key ownership} *)

(** A keyspace placed on the ring: each key has a primary copy on its
    live owner and replicas on the owner's first believed-live
    successor-list entries (classical Chord successor-list
    replication).  A stabilizer round that changed the ring re-computes
    every key's placement against the ring's current beliefs and counts
    the copies that moved ({!Store.migrated}) — the data-migration cost
    of a churn event. *)
module Store : sig
  type t

  val create : ?replicas:int -> chord -> keys:int array -> t
  (** [create chord ~keys] places each key id on the ring with
      [replicas] (default 2) additional copies.  Raises
      [Invalid_argument] on a negative replica count, an empty
      keyspace, or a duplicate key. *)

  val key : t -> int -> int
  (** Key id at a key index. *)

  val primary_of : t -> int -> int
  (** Node currently holding the primary copy of a key index. *)

  val holders : t -> int -> int array
  (** All nodes holding a key index, primary first. *)

  val holds : t -> key:int -> node:int -> bool
  (** Whether [node] currently holds a copy of key id [key] ([false]
      for unknown keys). *)

  val migrated : t -> int
  (** Cumulative copies moved across all re-homing sweeps. *)

  val rehomes : t -> int
  (** Number of re-homing sweeps performed (one per stabilizer round that
      changed the ring, with this store attached). *)
end

(** {2 Continuous stabilization} *)

(** The periodic counterpart of {!heal_engine}: Chord's
    stabilize / notify / fix-fingers / check-predecessor protocol run
    as recurring {!Tivaware_eventsim.Sim} events, every probe charged
    through the engine under its own label and (optionally) admitted
    by a {!Tivaware_measure.Arbiter} plane — the first scenario where
    a background protocol competes with foreground traffic for probe
    tokens.  On a fault-free engine with no churn, rounds verify the
    built structure without changing it: the only trace is the probes
    on the stabilizer's own label. *)
module Stabilizer : sig
  type config = {
    interval : float;  (** seconds between a node's rounds *)
    fingers_per_round : int;  (** finger slots refreshed per round *)
    candidates : int;  (** PNS arc candidates per finger refresh *)
    label : string;  (** probe-accounting label *)
    plane : string;  (** arbiter plane and obs [plane] label *)
  }

  val default_config : config
  (** [interval = 2.], [fingers_per_round = 1], [candidates = 8],
      [label = "chord-stabilize"], [plane = "chord_stabilize"]. *)

  type totals = {
    rounds : int;  (** [chord.stabilize_rounds] *)
    checked : int;  (** [repair.checked{plane}]: stabilization probes issued *)
    rerouted : int;  (** [repair.rerouted{plane}] *)
    marked_dead : int;  (** [repair.marked_dead{plane}] *)
    revived : int;  (** [repair.revived{plane}] *)
    denied : int;
        (** [repair.denied{plane}]: rounds curtailed by an arbiter
            refusal: the first refused token counts here and suppresses
            the round's remaining probes (the carve cannot refill while
            the clock stands still, so retrying within the round is
            pointless) *)
  }

  type t

  val create :
    ?config:config ->
    ?arbiter:Tivaware_measure.Arbiter.t ->
    ?store:Store.t ->
    chord ->
    Tivaware_measure.Engine.t ->
    t
  (** Registers the [chord.stabilize_rounds] / [chord.keys_migrated]
      counters and the [repair.*] family under [plane] in the engine's
      registry at zero, so a stabilized run's metrics summary always
      carries the schema.  With [arbiter], every probe first asks
      [admit ~now plane] and is skipped (never issued, counted under
      [repair.denied] and {!totals}[.denied]) on refusal.  With
      [store], a round that changed the ring re-homes the keys.
      Raises [Invalid_argument] on a non-positive interval, negative
      [fingers_per_round], [candidates < 1], or a store built over a
      different ring. *)

  val totals : t -> totals
  (** A view of the engine's registry: each field reads the series
      named beside it, [plane] being [config.plane].  Those series are
      engine-wide, so the view assumes one stabilizer per engine and
      no other writer of its [plane]. *)

  val round : t -> int -> unit
  (** One stabilization round of one node, skipped entirely (not even
      counted) while the node is down under the engine's churn: check
      the predecessor, find the first live successor candidate (the
      successor list, then — all silent — the ring itself), adopt the
      successor's predecessor when it sits strictly between and
      answers, refresh the successor list from the successor's,
      notify, and refresh [fingers_per_round] finger slots from the
      per-node cursor.  When the round changed any belief and a store
      is attached, the keys are re-homed.  Calling it directly, with
      the engine clock standing still, drives the ring to a fixed
      point. *)

  val schedule : t -> Tivaware_eventsim.Sim.t -> unit
  (** Schedule every node's rounds as recurring simulator events: node
      [u] of [n] first fires at [interval * (u+1) / n], then every
      [interval] — a deterministic stagger that spreads maintenance
      over the period instead of bursting all rounds on one timestamp.
      The engine clock is slaved to the simulator ([Engine.advance_to]
      on every advance, simulator time in engine seconds) so churn and
      token refill move with simulated time. *)
end
