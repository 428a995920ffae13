(** The TIV alert mechanism (Section 5.1).

    When a delay space with TIVs is embedded into a metric space, edges
    causing severe TIVs tend to be {e shrunk}: many short alternative
    paths pull their endpoints together, so the embedding sacrifices
    them to preserve the majority of edges.  The {e prediction ratio}

    [ratio(i, j) = predicted_distance(i, j) / measured_delay(i, j)]

    is therefore a cheap indicator: a small ratio flags a likely-severe
    edge.  The mechanism does not predict severity — it raises alerts. *)

val ratio : predicted:(int -> int -> float) -> int -> int -> float -> float
(** [ratio ~predicted i j measured] is [predicted i j /. measured], or
    [nan] when the measurement is missing or below 1e-9 ms (no division
    blowup); [predicted] is only consulted for a usable measurement.
    The one prediction-ratio rule behind every alert. *)

val ratio_matrix :
  measured:Tivaware_delay_space.Matrix.t ->
  predicted:(int -> int -> float) ->
  Tivaware_delay_space.Matrix.t
(** Prediction ratio for every present edge.  Edges with measured delay
    below 1e-9 ms are left missing to avoid division blowup. *)

val ratio_matrix_engine :
  engine:Tivaware_measure.Engine.t ->
  predicted:(int -> int -> float) ->
  Tivaware_delay_space.Matrix.t
(** As {!ratio_matrix}, but each edge's measured delay is obtained by a
    probe through the measurement plane (label ["alert"]): a lost or
    denied probe leaves the edge's ratio missing (no alert possible),
    and jitter perturbs the ratio.  The engine must be matrix-backed. *)

val ratio_severity_pairs :
  ratios:Tivaware_delay_space.Matrix.t ->
  severity:Tivaware_delay_space.Matrix.t ->
  (float * float) array
(** [(prediction_ratio, severity)] per edge present in both matrices —
    the raw data behind Figure 19. *)

val alerted :
  ratios:Tivaware_delay_space.Matrix.t -> threshold:float -> (int * int) array
(** Edges whose prediction ratio is [<= threshold] (shrunk edges). *)

val is_alert :
  ratios:Tivaware_delay_space.Matrix.t -> threshold:float -> int -> int -> bool
(** [false] when the edge or its ratio is missing. *)

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
    measured delay tagged [`Flagged] when the prediction ratio
    [predicted /. measured] is [<= threshold] (a likely-severe shrunk
    edge) and [`Clean] otherwise.  A missing prediction ([nan]) cannot
    raise an alert.  Works over any backend — the per-pair counterpart
    of {!ratio_matrix_engine} for {!Selection}. *)
