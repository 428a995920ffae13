(** Probe accounting, as an immutable view.

    The engine's metric registry is the only store of probe counts
    ([measure.*] series, see {!Engine.obs}); {!Engine.stats} reads them
    into this record.  A value is frozen at the moment it was taken, so
    callers diff two views around a phase.  [requests] counts calls into
    the engine; [issued] counts attempts actually sent to the oracle
    (retransmissions included), so [issued - requests] bounds the retry
    overhead and [hits / requests] is the service-mode cache efficiency
    (IDMS-style).  Per-label counts attribute issued probes to
    protocols ([vivaldi], [meridian], [alert], ...). *)

type t = {
  requests : int;  (** calls to {!Engine.probe} / {!Engine.rtt} *)
  issued : int;  (** attempts sent to the oracle, retries included *)
  lost : int;  (** attempts dropped by injected loss *)
  retried : int;  (** extra attempts after a loss *)
  failed : int;  (** requests that exhausted every retry *)
  denied : int;  (** requests refused by the probe budget *)
  down : int;  (** requests to/from a node in outage *)
  unmeasured : int;  (** oracle had no measurement for the pair *)
  hits : int;  (** fresh cache hits (no probe issued) *)
  stale : int;  (** cache entries found expired (re-probed) *)
  misses : int;  (** cache lookups with no entry *)
  evicted : int;  (** cache entries evicted by the LRU capacity bound *)
  probe_ms : float;
      (** total measurement time charged on the issuing path (RTTs of
          delivered attempts, timeouts of lost ones, backoff delays) *)
  per_label : (string * int) list;
      (** issued probes per protocol, sorted by label; labels that never
          issued a probe are absent *)
}

val label_count : t -> string -> int
(** Issued probes attributed to a label; 0 when never seen. *)

val labels : t -> (string * int) list
(** All per-label counts, sorted by label ([per_label]). *)

val pp : Format.formatter -> t -> unit
(** One-line summary, e.g.
    [requests=900 issued=842 lost=80 retried=60 failed=20 denied=12
     down=0 unmeasured=4 cache hit/stale/miss=42/3/858 evicted=12
     probe_ms=61520 | meridian=842]. *)
