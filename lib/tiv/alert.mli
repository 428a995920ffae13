(** The TIV alert mechanism (Section 5.1).

    When a delay space with TIVs is embedded into a metric space, edges
    causing severe TIVs tend to be {e shrunk}: many short alternative
    paths pull their endpoints together, so the embedding sacrifices
    them to preserve the majority of edges.  The {e prediction ratio}

    [ratio(i, j) = predicted_distance(i, j) / measured_delay(i, j)]

    is therefore a cheap indicator: a small ratio flags a likely-severe
    edge.  The mechanism does not predict severity — it raises alerts.

    This module is the one place a prediction and a measurement become
    a ratio or a verdict: every ratio is [predicted i j /. measured], or
    [nan] when the measurement is missing or below 1e-9 ms ([predicted]
    is then not consulted). *)

val probed_ratio :
  label:string ->
  engine:Tivaware_measure.Engine.t ->
  predicted:(int -> int -> float) ->
  int ->
  int ->
  float
(** The ratio of [i -> j] measured by one
    {!Tivaware_measure.Engine.rtt} probe under plane [label]: [nan] when
    the probe fails (loss, outage, budget denial, missing pair), and
    jitter perturbs it. *)

val shrunk : threshold:float -> float -> bool
(** [shrunk ~threshold r], the alert test: [r] is not [nan] and at most
    [threshold] — a likely-severe shrunk edge. *)

val ratio_matrix :
  measured:Tivaware_delay_space.Matrix.t ->
  predicted:(int -> int -> float) ->
  Tivaware_delay_space.Matrix.t
(** The ratio of every present edge; edges measured below 1e-9 ms are
    left missing. *)

val ratio_matrix_engine :
  engine:Tivaware_measure.Engine.t ->
  predicted:(int -> int -> float) ->
  Tivaware_delay_space.Matrix.t
(** As {!ratio_matrix} over the engine's dense ground truth
    ({!Tivaware_backend.Delay_backend.of_engine}), each edge's ratio a
    {!probed_ratio} under label ["alert"]: a failed probe leaves it
    missing.  Raises [Invalid_argument] on a non-dense engine. *)

val ratio_severity_pairs :
  ratios:Tivaware_delay_space.Matrix.t ->
  severity:Tivaware_delay_space.Matrix.t ->
  (float * float) array
(** [(ratio, severity)] per edge present in both matrices — the raw
    data behind Figure 19. *)

val alerted :
  ratios:Tivaware_delay_space.Matrix.t -> threshold:float -> (int * int) array
(** Edges whose ratio is {!shrunk} at [threshold]. *)

val alert_pair :
  ?label:string ->
  engine:Tivaware_measure.Engine.t ->
  predicted:(int -> int -> float) ->
  threshold:float ->
  int ->
  int ->
  [ `Clean of float | `Flagged of float | `Unmeasurable ]
(** One verification probe for one pair (default plane label
    ["alert"]): [`Unmeasurable] when the probe fails, otherwise the
    measured delay tagged [`Flagged] when its ratio is {!shrunk} at
    [threshold] and [`Clean] otherwise.  A missing prediction ([nan])
    cannot raise an alert.  Works over any backend — the per-pair
    verdict {!Selection} ranks by. *)
