(** JSON run summaries of a {!Registry}.

    The summary is the machine-readable face of a run: every counter,
    gauge and histogram (sorted by series name, so output is
    deterministic) plus the trace ring, under a versioned schema tag.
    Counters that only ever saw integral increments serialize as JSON
    integers; all floats print with 6 significant digits
    ({!Json.to_string}), which keeps fixtures stable across machines.

    Layout:
    {v
    { "schema": "tivaware.obs/1",
      "clock": 37.5,
      "counters":   { "measure.probes.sent{plane=vivaldi}": 4800, ... },
      "gauges":     { "alert.precision": 0.84, ... },
      "histograms": { "measure.rtt_ms":
                        { "count": 4800, "sum": 211000.0, "mean": 43.9,
                          "p50": 38.2, "p99": 187.0,
                          "dropped": 0,
                          "buckets": [ {"le": 10.0, "count": 12}, ...,
                                       {"le": "+inf", "count": 3} ] } },
      "trace":      [ {"t": 50.0, "label": "repair.vivaldi",
                       "event": "evicted=3 resampled=3"}, ... ],
      "trace_dropped": 0 }
    v}

    [p50]/[p99] are {!Histogram.quantile} estimates (bucket-linear
    interpolation); [mean], [p50] and [p99] are [null] for an empty
    histogram. *)

val write : ?clock:float -> Registry.t -> string -> unit
(** Write the summary (indented JSON plus a trailing newline) to a file
    path.  [clock] stamps the run's logical end time (the engine
    clock); omitted when absent. *)
