(** Replica-selection policies: how a proxy picks which replica of a
    partition serves a read.

    Every policy sees the same candidate list — [(device id, node)]
    pairs — and any measurement it wants costs a probe through the
    {!Tivaware_measure.Engine}, so loss, churn, budgets and dynamics
    hit every policy alike.  The four policies reproduce the paper's
    server-selection spectrum:

    - {!naive} — static proximity: probe a client/replica pair once,
      trust the estimate forever.  Free after warm-up, blind to churn
      and to route dynamics.
    - {!coordinate} — Vivaldi-style: rank replicas by predicted
      coordinate distance, zero probes per read.  Exactly the selection
      TIVs silently break — shrunk edges look closer than they are.
    - {!probe} — Meridian-style direct measurement
      ({!Tivaware_meridian.Query.closest_among}): every candidate is
      probed on every read.  Accurate and expensive.
    - {!alert} — TIV-alert-aware: walk candidates in predicted order
      but verify each with one probe
      ({!Tivaware_tiv.Alert.alert_pair}); a candidate whose prediction
      ratio flags a likely-shrunk edge is skipped while any clean
      candidate remains. *)

type t

val naive : unit -> t
(** Carries its own estimate cache (probe once per (client, node)
    pair); failed probes are retried on later reads rather than cached. *)

val coordinate : (int -> int -> float) -> t
(** [coordinate predicted]: rank by [predicted client node]. *)

val probe : unit -> t

val alert : ?threshold:float -> (int -> int -> float) -> t
(** [alert predicted] with the prediction-ratio [threshold] (default
    {!Tivaware_tiv.Alert.default_threshold}).  Raises [Invalid_argument]
    on a non-positive or non-finite threshold. *)

val name : t -> string
(** ["naive" | "coordinate" | "probe" | "alert"]. *)

type choice = {
  device : int;
  node : int;
  estimate : float;
      (** what the policy believed about the chosen replica: cached or
          fresh measurement for probing policies, the coordinate
          prediction for {!coordinate} *)
  probes : int;  (** probes issued during this selection *)
  skipped_flagged : int;
      (** {!alert} only: candidates passed over on a TIV alert *)
}

val select :
  ?label:string ->
  t ->
  engine:Tivaware_measure.Engine.t ->
  client:int ->
  candidates:(int * int) array ->
  choice option
(** Pick a replica for [client] among [candidates] ([(device, node)]).
    Probes carry [label] (plane attribution; default ["store"]).
    Unmeasurable candidates are skipped; [None] when the policy cannot
    rank anyone (empty list, or every probe failed).  Deterministic:
    ties break toward the earlier candidate in array order, so two
    policies ranking candidates identically choose identically. *)
