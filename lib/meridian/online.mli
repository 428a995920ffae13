(** Online Meridian queries over the discrete-event simulator.

    {!Query.closest} evaluates a query instantaneously; this module
    replays the same recursive protocol as timed message exchanges on a
    {!Tivaware_eventsim.Sim.t}, yielding wall-clock (virtual time) query
    latency in addition to probe counts:

    - the client's request reaches the start node after half its RTT to
      it (we only have RTTs, so one-way = RTT / 2);
    - at each hop the current node probes the target (one RTT), then
      fans out to its eligible ring members in parallel; each member
      costs (RTT to member) + (member's probe RTT to target) before its
      report is back;
    - the hop completes when the slowest eligible member reports
      (Meridian waits for all acceptable members);
    - forwarding to the next node costs half the RTT between them, and
      the final answer returns to the client after half the client-to-
      chosen RTT.

    Probes go through a {!Tivaware_measure.Engine}, not delay-matrix
    lookups: under its default (oracle) config a probe costs exactly
    the ground-truth RTT, and with faults configured it costs what the
    measurement plane charges.

    The module adds {e timing}, not different semantics: it drives
    {!Query}'s walk ({!Query.arrive}, {!Query.probe}, {!Query.step},
    {!Query.finish}), so the recursion, acceptance window, termination
    rule, hop decision (ring-member order, delay ties included), answer
    and registry accounting are {!Query.closest}'s by construction.
    Every eligible member, visited ones included, still gets its
    request and report.  The qcheck property "online matches offline
    query" ([test/test_meridian.ml]) checks the identity on generated
    overlays with tied and continuous delays. *)

type outcome = {
  query : Query.outcome;  (** the logical result (same as offline) *)
  latency : float;  (** virtual ms from client send to answer received *)
}

val attach : Tivaware_eventsim.Sim.t -> Tivaware_measure.Engine.t -> unit
(** Slaves the engine's logical clock (seconds) to the simulator's
    virtual clock (ms) via {!Tivaware_eventsim.Sim.on_advance}, so
    probe budgets refill and cache entries age in simulator time.  Call
    once per (sim, engine) pair, before querying. *)

val closest :
  ?termination:Query.termination ->
  Tivaware_eventsim.Sim.t ->
  Overlay.t ->
  Tivaware_measure.Engine.t ->
  client:int ->
  start:int ->
  target:int ->
  outcome
(** Runs the simulator until the query completes.  The simulator's
    clock keeps advancing across calls, so one [Sim.t] can serve many
    sequential queries.  Message transit (client hand-off, fan-out
    request/report halves, forwarding, the answer's return) rides the
    engine's ground-truth delay backend, recovered with
    {!Tivaware_backend.Delay_backend.of_engine}, so any engine works —
    matrix-backed or lazy.  Every probe is issued through the engine at
    the moment the protocol reaches it and its cost — the delivered
    RTT, or the timeouts and backoff delays a lost probe burns —
    advances the simulator clock on the issuing path, so [latency]
    includes what measurement actually cost.  Failed probes degrade
    the query exactly as in {!Query.closest} (a node that cannot
    measure the target becomes ineligible; a failed start probe ends
    the query with [chosen_delay = nan]).  The engine should be created
    with [charge_time = false] here — the simulator owns time; pair
    with {!attach} to keep the engine clock in sync.  Raises
    [Invalid_argument] when [start] is not a Meridian node or the
    client has no measured delay to it. *)
