(** Neighbor-selection policies for the streaming swarm: how a peer
    ranks prospective parents when it joins, refreshes, or is
    re-grafted after churn.

    Each policy is exposed as a [predict : int -> int -> float]
    function (smaller = more attractive, [nan] = unusable) so the
    whole swarm rides the {!Tivaware_overlay.Multicast} attachment
    machinery unchanged — the policy only changes how candidates are
    ordered, and any measurement it wants is a probe through the
    {!Tivaware_measure.Engine}, so loss, churn, budgets and dynamics
    hit every policy alike.  The three policies reproduce the
    locality spectrum of Clegg et al.'s live-streaming study:

    - {!naive} — locality-unaware: candidates are ranked by a pure
      seeded hash, i.e. the peer attaches to a uniformly random member
      with spare degree.  Zero probes.
    - {!coordinate} — Vivaldi-style: rank by predicted coordinate
      distance.  Zero probes per join; exactly the ranking TIVs
      silently break — shrunk edges look closer than they are.
    - {!alert} — TIV-alert-aware: rank by one verification probe per
      evaluated candidate ({!Tivaware_tiv.Alert.alert_pair}, the same
      adapter the store policies use); a candidate whose prediction
      ratio flags a likely-shrunk edge is pushed behind every clean
      candidate by a large rank penalty. *)

type t

val naive : seed:int -> t
(** Seeded random ranking: [predict i j] is a pure hash of
    [(seed, i, j)] in [(0, 1)], so join order — not probe luck —
    decides the tree, and replays are bit-identical. *)

val coordinate : (int -> int -> float) -> t
(** [coordinate predicted]: rank by [predicted i j]. *)

val alert : ?threshold:float -> (int -> int -> float) -> t
(** [alert predicted] with the prediction-ratio [threshold] (default
    {!Tivaware_tiv.Alert.default_threshold}).  Raises [Invalid_argument]
    on a non-positive or non-finite threshold. *)

val flagged_penalty : float
(** Rank multiplier applied to flagged edges (1000): a flagged
    candidate is only chosen when no clean candidate is eligible. *)

val name : t -> string
(** ["naive" | "vivaldi" | "alert"]. *)

val predictor :
  ?label:string -> t -> Tivaware_measure.Engine.t -> int -> int -> float
(** The ranking function handed to
    {!Tivaware_overlay.Multicast.build} (and refresh/repair).
    Probes issued by the {!alert} policy are charged through [engine]
    under [label] (default ["stream"]); {!naive} and {!coordinate}
    never touch the engine. *)
