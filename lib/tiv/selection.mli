(** Neighbor-selection policies: how a node ranks candidates and picks
    one — a proxy choosing the replica that serves a read, a swarm peer
    choosing its parent.

    Every policy sees the same candidates, and any measurement it wants
    costs a probe through the {!Tivaware_measure.Engine}, so loss,
    churn, budgets and dynamics hit every policy alike.  The policies
    span the paper's server-selection spectrum (and Clegg et al.'s
    locality spectrum for streaming):

    - {!cached} — static proximity: probe a pair once, trust the
      estimate forever.  Free after warm-up, blind to churn and to
      route dynamics.
    - {!random} — locality-unaware: a pure seeded hash of the pair, so
      the choice is a uniformly random candidate.  Zero probes.
    - {!coordinate} — Vivaldi-style: rank by predicted coordinate
      distance, zero probes.  Exactly the selection TIVs silently
      break — shrunk edges look closer than they are.
    - {!probe} — Meridian-style direct measurement: every candidate is
      probed every time.  Accurate and expensive.
    - {!alert} — TIV-alert-aware (Section 5.1): verify candidates with
      one probe each ({!Alert.alert_pair}); a candidate whose
      prediction ratio flags a likely-shrunk edge loses to every clean
      one. *)

type t

val cached : unit -> t
(** Carries its own estimate cache (one probe per (selector, candidate)
    pair); failed probes are retried later rather than cached. *)

val random : seed:int -> t
(** [rank i j] is a pure hash of [(seed, i, j)] in [(0, 1)], so join
    order — not probe luck — decides, and replays are bit-identical. *)

val coordinate : (int -> int -> float) -> t
(** [coordinate predicted]: rank by [predicted i j]. *)

val probe : unit -> t

val alert : ?threshold:float -> (int -> int -> float) -> t
(** [alert predicted] with the prediction-ratio [threshold] (default
    0.5: an edge measured at more than twice its predicted distance is
    flagged as likely-severe).  Raises [Invalid_argument] naming
    [Selection.alert] on a non-positive or non-finite threshold. *)

val rank : label:string -> t -> Tivaware_measure.Engine.t -> int -> int -> float
(** [rank ~label t engine i j]: how attractive candidate [j] is to the
    selecting node [i] — smaller is better, [nan] is unusable.  This is
    the [?predict] hook of [Tivaware_overlay.Multicast] (build, refresh,
    repair).  Probes carry [label].  {!cached} probes [i -> j] on a
    miss; {!probe} probes [j -> i] every call; {!alert} probes [i -> j]
    and ranks a clean pair at its measured delay [d], a flagged pair at
    [1000 *. d] (behind every clean one of comparable delay), an
    unmeasurable pair at [nan];
    {!random} and {!coordinate} never touch the engine. *)

type choice = {
  device : int;
  node : int;
  estimate : float;
      (** what the policy believed about the chosen candidate: cached or
          fresh measurement for probing policies, the hash or coordinate
          prediction for {!random} and {!coordinate} *)
  probes : int;  (** engine calls made during this selection *)
  skipped_flagged : int;
      (** {!alert} only: candidates passed over on a TIV alert *)
}

val select :
  label:string ->
  t ->
  engine:Tivaware_measure.Engine.t ->
  client:int ->
  candidates:(int * int) array ->
  len:int ->
  choice option
(** Pick one of the first [len] [candidates] ([(device, node)]) for
    [client]; probes carry [label].  Every policy but {!alert} takes the
    first strict minimum of [rank client node] in candidate order,
    skipping [nan].  {!alert} walks candidates in ascending predicted
    order (stable; unpredicted last), probes each once, and stops at the
    first clean one — or, when every walked candidate was flagged, falls
    back to the best-measured flagged one.  [None] when nobody can be ranked ([len = 0], or every
    probe failed). *)
