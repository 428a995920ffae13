(** Event-driven Vivaldi over the discrete-event simulator.

    {!System.run} advances the embedding in synchronous rounds; this
    module instead runs Vivaldi the way a deployment does: every node
    independently probes one random neighbor every [probe_period]
    seconds (with per-probe jitter so nodes desynchronize), and the
    coordinate update is applied when the probe {e response} arrives —
    one RTT after it was sent — so updates interleave in continuous
    virtual time and act on coordinates that may have moved since the
    probe left.

    The paper's experiments use the synchronous driver; this module
    supports stability studies (cf. "network coordinates in the wild")
    and exercises the simulator against a second protocol. *)

type config = {
  probe_period : float;  (** mean seconds between a node's probes (default 1) *)
  jitter : float;  (** uniform fraction of the period (default 0.1) *)
}

val default_config : config

type stats = {
  probes_sent : int;
  probes_completed : int;  (** responses applied before the deadline *)
  probes_lost : int;
      (** sent probes that never applied: dropped by the engine
          ([Lost]/[Down]), or landed on an end that was down or past
          the deadline *)
}

val run :
  ?config:config ->
  Tivaware_eventsim.Sim.t ->
  System.t ->
  duration:float ->
  stats
(** [run sim system ~duration] schedules every node's probe loop and
    runs the simulator for [duration] virtual seconds (RTTs from the
    system's delay matrix are in milliseconds and converted).  The
    simulator clock advances by [duration]; calling again continues
    the protocol.

    Probes go through the system's measurement-plane engine, whose
    logical clock is slaved to the simulator (every event of the run
    first advances it to the simulator's time): a probe the engine
    drops ([Lost]/[Down]) counts as sent and lost; a budget-denied or
    unmeasurable probe is not sent at all.

    Churn is the engine's: {!Tivaware_measure.Engine.up} is the only
    liveness read, and the engine's churn schedule the only writer of
    node outages ("network coordinates in the wild" observe that
    Vivaldi must cope with nodes failing and rejoining).  A node that
    is down skips its tick; a response applies only if both ends are
    up when it lands.  On its first tick after a tick found it down, a
    node has lost its coordinate state and restarts from a fresh
    position ({!System.reset_node}), so a down spell shorter than one
    probe gap goes unseen.  Failure counts are the schedule's
    ({!Tivaware_measure.Churn.transitions}). *)
