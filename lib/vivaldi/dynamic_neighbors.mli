(** Dynamic-neighbor Vivaldi (Section 5.2): the TIV alert mechanism
    applied to Vivaldi's own probing-neighbor sets.

    After each embedding period, every node samples a second batch of
    random neighbor candidates, ranks the combined pool by the
    prediction ratio of its edges under the current coordinates, and
    drops the most-shrunk half — exactly the edges the alert mechanism
    flags as likely severe-TIV edges.  Iterating this shrinks the TIV
    severity of neighbor edges (Figure 22) and improves neighbor
    selection (Figure 23).  Each candidate's ratio is one
    {!Tivaware_tiv.Alert.probed_ratio} through the system's engine under
    plane label ["vivaldi-neighbors"]: a pass over [n] nodes with [want]
    neighbors each costs up to [n × 2 × want] probes, charged, budgeted
    and lossy like any other. *)

type schedule = {
  rounds_per_iteration : int;
      (** embedding rounds between neighbor refreshes; the paper uses
          100 simulated seconds so coordinates re-converge *)
  iterations : int;
}

val run :
  ?on_iteration:(int -> System.t -> unit) ->
  System.t ->
  schedule ->
  unit
(** Runs the schedule: embed, refresh, repeat.  A refresh step covers
    every node: sample as many new random candidates as the node
    currently has, probe the prediction ratio of every candidate in the
    union, and keep the top half (largest ratios — the least shrunk
    edges); a node with fewer measured candidates than neighbors keeps
    its current set.  [on_iteration k system]
    is called after iteration [k] (1-based) has embedded and refreshed —
    use it to snapshot neighbor-edge severities or selection quality at
    the iteration counts the paper plots (1, 2, 5, 10). *)

(** {2 Churn-aware repair} *)

type repair = {
  evicted : int;  (** neighbors dropped because they answered no probe *)
  resampled : int;  (** live replacements admitted into neighbor sets *)
}

val repair_neighbors : ?label:string -> System.t -> repair
(** One repair pass: every node that is itself up
    ({!Tivaware_measure.Engine.up}; always, without churn) re-probes its current neighbors
    through the system's engine, evicts the ones whose probe fails
    (outage, loss, budget denial — the prober cannot tell these apart),
    and samples random replacements until the set is full again,
    admitting only candidates that answer a probe.  All repair probes
    are charged and accounted under [label] (default
    ["vivaldi-repair"]).  Under an oracle-mode engine every probe
    succeeds and the pass is a no-op. *)
