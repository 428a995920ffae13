(** P2P live streaming over the TIV delay space — the first scenario
    judged by an {e application} metric (missed playback deadlines)
    rather than a protocol metric.

    A seeded source emits fixed-rate chunks with playback deadlines
    into a dissemination tree built over {!Tivaware_overlay.Multicast},
    whose [?predict] hook is the {!Tivaware_tiv.Selection.rank} of the
    swarm's policy.  Members hold bounded chunk buffers; chunks are
    pushed down the tree paying the real link delay (backend base delay
    plus whatever the dynamics plane currently imposes), and gaps are
    recovered by a periodic have-map/pull exchange with the parent
    whose control round-trip is a probe through the
    {!Tivaware_measure.Engine} (so loss, budgets and churn tax recovery
    like any other measurement).
    Churn-driven re-neighboring runs through a [stream_repair] plane
    gated by an optional {!Tivaware_measure.Arbiter} carve.

    Everything is slaved to one event simulator, so a run is a pure
    function of [(config, policy, backend, engine config)] — byte
    reproducible, which is what the CI determinism gate checks. *)

type config = {
  members : int;  (** swarm size, source included (>= 2) *)
  chunk_ms : float;  (** inter-chunk emission gap, ms of stream time *)
  deadline_ms : float;  (** playback deadline after emission, ms *)
  buffer_chunks : int;  (** have-map / pull window, in chunks (>= 1) *)
  pull_interval : float;  (** seconds between pull exchanges (> 0) *)
  repair_interval : float;  (** seconds between repair passes (0 = off) *)
  max_degree : int;  (** children cap per member *)
  duration : float;  (** seconds of stream emission *)
  seed : int;  (** membership / join-order / repair-sampling seed *)
}

val default_config : config
(** 48 members, 400 ms chunks, 800 ms deadline, 16-chunk buffer, 2 s
    pulls, 5 s repair, degree 4, 120 s, seed 7. *)

val validate_config : string -> config -> unit
(** Raises [Invalid_argument] with a [ctx]-prefixed message naming the
    offending field, including a config whose chunks times members plus
    pull rounds times members plus repair passes exceed
    {!Tivaware_eventsim.Sim.work_cap}. *)

type t

val create :
  ?arbiter:Tivaware_measure.Arbiter.t ->
  config:config ->
  select:Tivaware_tiv.Selection.t ->
  backend:Tivaware_backend.Delay_backend.t ->
  engine:Tivaware_measure.Engine.t ->
  unit ->
  t
(** Samples the membership from the delay space (the source is the
    first sampled node outside the churning subset, so the broadcast
    does not die with its broadcaster), builds the dissemination tree
    through the policy's ranking (attachment probes on the ["stream"]
    plane), and registers the [stream.*] observability series.
    Raises [Invalid_argument] on an invalid config or when [members]
    exceeds the delay space. *)

val source : t -> int
(** Node id of the chunk source (the tree root). *)

val tree : t -> Tivaware_overlay.Multicast.t

type repair_totals = {
  passes : int;  (** repair passes that ran *)
  denied : int;  (** [stream.repair_denied]: passes refused by the arbiter carve *)
  detached : int;  (** [repair.detached{plane=multicast}] *)
  reattached : int;  (** [repair.reattached{plane=multicast}] *)
  rejoined : int;  (** [repair.rejoined{plane=multicast}] *)
}

type result = {
  members : int;  (** swarm size (source included) *)
  joined : int;  (** tree members when the run ended *)
  chunks : int;  (** chunks emitted *)
  on_time : int;  (** [stream.on_time]: (member, chunk) deliveries inside the deadline *)
  missed : int;  (** [stream.missed]: pairs past deadline at a live member *)
  down_at_deadline : int;
      (** [stream.down_at_deadline]: pairs not judged, member down at deadline *)
  miss_rate : float;  (** missed / (on_time + missed) *)
  deliveries : int;  (** [stream.deliveries]: push + pull chunk deliveries accepted *)
  duplicates : int;  (** [stream.duplicates]: deliveries of already-held chunks *)
  transfer_failures : int;
      (** [stream.transfer_failures]: forwards dropped on an unmeasurable link *)
  lost_down : int;  (** [stream.lost_down]: deliveries that found the receiver down *)
  pull_exchanges : int;  (** [stream.pull_exchanges]: have-map control rounds issued *)
  pull_failures : int;  (** [stream.pull_failures]: control rounds whose probe failed *)
  pull_requests : int;  (** [stream.pull_requests]: chunks asked for across all exchanges *)
  pull_hits : int;  (** [stream.pull_hits]: requested chunks the parent could serve *)
  overhead_ratio : float;
      (** (duplicates + pull control rounds) per accepted delivery *)
  stretches : float array;
      (** per on-time delivery: receive latency over the member's
          direct source delay *)
  repair : repair_totals;
  tree_metrics : Tivaware_overlay.Multicast.metrics;
      (** final tree judged by {!Tivaware_overlay.Multicast.evaluate}
          (ground truth, nan-audited) *)
}
(** A view of the engine's registry: each counted field reads the
    series named beside it once, after the run.  Those series are
    engine-wide, so the view assumes one swarm per engine and no other
    {!Tivaware_overlay.Multicast.repair} on it. *)

val run : t -> result
(** Plays the whole broadcast: chunk emissions over [duration],
    deadline judgements [deadline_ms] later, pull and repair planes
    running until the last deadline.  All state advances through the
    event simulator; the engine clock (and with it churn, dynamics,
    budget refill and cache aging) is slaved to it. *)
