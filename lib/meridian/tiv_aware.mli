(** TIV-aware Meridian (Section 5.3).

    Both extensions consume TIV alerts from an independent embedding
    (e.g. Vivaldi) supplied as a [predicted] delay function.

    {b Ring construction}: when the prediction ratio of the edge to a
    candidate member falls outside the safe band [[ts, tl]], the member
    is placed both by its measured delay and by its predicted delay —
    in the worst case occupying two rings — so that a severely
    TIV-distorted measurement cannot hide a genuinely nearby member.

    {b Query restart}: when the recursive query is about to terminate
    at node [M], and the prediction ratio of the edge [M → target] is
    below [ts] (the measured delay looks TIV-inflated), [M] probes an
    extra batch of ring members selected around the {e predicted} delay
    to the target, possibly resuming the query.

    Paper thresholds: [ts = 0.6], [tl = 2.0]. *)

val default_ts : float
val default_tl : float

val placement :
  Ring.config ->
  predicted:(int -> int -> float) ->
  engine:Tivaware_measure.Engine.t ->
  ?ts:float ->
  ?tl:float ->
  unit ->
  int -> int -> float -> (int * float) list
(** Dual-placement hook for {!Overlay.build}'s [?placement]: the first
    entry represents the measured delay, the second (when the edge is
    alerted and the rings differ) the predicted delay.  The alert
    ratio's measured delay is probed through the measurement plane
    (label ["tiv-aware"]): a failed probe suppresses the alert and the
    member is placed by its measured delay only. *)

val fallback :
  Overlay.t ->
  predicted:(int -> int -> float) ->
  engine:Tivaware_measure.Engine.t ->
  ?ts:float ->
  unit ->
  Query.fallback
(** Query-restart hook for {!Query.closest}'s [?fallback], probing the
    alert ratio through the measurement plane; a failed probe means no
    restart. *)
