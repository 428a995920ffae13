(** The Chord lookup scenario: Zipf-popular key lookups replayed over
    simulated time on a PNS ring with a placed keyspace, while every
    node runs the periodic {!Chord.Stabilizer} protocol and the
    engine's churn moves with the simulator clock.

    Foreground lookups pay their hops as probes on the ["dht"] label;
    maintenance pays under the stabilizer's own label and, with an
    [arbiter], asks its ["chord_stabilize"] plane for admission.  A
    lookup is correct when it terminates at a node that is actually up
    (ground truth, not belief) and holds the key.  Everything is
    deterministic in the config seed and the engine's seeds. *)

type config = {
  keys : int;  (** distinct key ids placed on the ring *)
  zipf_s : float;  (** key popularity skew *)
  lookups : int;  (** lookups spread evenly over [duration] *)
  duration : float;  (** seconds of simulated time *)
  interval : float;  (** seconds between a node's rounds; <= 0 = no stabilizer *)
  fingers_per_round : int;  (** finger slots each round refreshes *)
  replicas : int;  (** copies per key beyond the primary *)
  candidates : int;  (** PNS arc candidates per finger *)
  seed : int;
}

val default_config : config
(** 512 keys at s = 0.9, 1000 lookups over 120 s, 2 s rounds
    refreshing one finger each, 2 replicas, 8 candidates, seed 7. *)

val validate_config : nodes:int -> string -> config -> unit
(** Raises [Invalid_argument] naming the offending field: [keys],
    [lookups] or [candidates] below 1, [zipf_s] negative or [nan],
    [duration] non-positive or non-finite, [fingers_per_round] or
    [replicas] negative; and [keys], [lookups] or [duration] when keys
    plus lookups plus rounds over a ring of [nodes] exceed
    {!Tivaware_eventsim.Sim.work_cap}. *)

type t

val create :
  ?arbiter:Tivaware_measure.Arbiter.t ->
  config:config ->
  backend:Tivaware_backend.Delay_backend.t ->
  engine:Tivaware_measure.Engine.t ->
  unit ->
  t
(** Builds an engine-PNS ring over the backend's nodes, draws the
    distinct keys (seeded [seed + 11]), places them, creates the
    stabilizer (unless [interval <= 0]) and registers the
    [chord.lookup_wrong_owner] counter.  The engine must measure
    [backend]. *)

type result = {
  issued : int;  (** lookups whose source was up *)
  skipped : int;  (** lookups whose source was down *)
  wrong : int;  (** [chord.lookup_wrong_owner] *)
  hops : int;  (** summed over issued lookups *)
  latencies : float array;  (** issued lookups, in event order *)
  totals : Chord.Stabilizer.totals;  (** all zero without a stabilizer *)
  migrated : int;  (** key copies moved by re-homing *)
  rehomes : int;  (** re-homing sweeps *)
}

val run : t -> result
(** Drives the scenario on a fresh event simulator: stabilizer rounds
    staggered over each [interval], [lookups] lookups at evenly spaced
    times over [duration] (seeded [seed + 13] sources and Zipf keys),
    the engine clock slaved to the simulator with or without a
    stabilizer. *)
