(** The object-store read-path scenario: Zipf-popular GETs routed by a
    proxy through a {!Tivaware_tiv.Selection} policy over a {!Ring}, under
    churn and network dynamics, with a repair plane re-homing
    partitions away from dead devices.

    Devices are a seeded sample of the delay space's nodes; clients
    are drawn from the remainder.  A read hashes its object to a
    partition, asks the policy to pick among the partition's currently
    {e serving} devices, and pays [failure_penalty_ms] (a timeout) for
    every attempt on a device that is in fact down — then retries on
    the remaining candidates and finally walks the ring's handoff
    order.  The repair plane probes device liveness on the
    ["store_repair"] plane (optionally token-gated by an
    {!Tivaware_measure.Arbiter} against foreground ["store"] probes)
    and substitutes handoff devices for believed-dead primaries, so
    the window in which reads hit dead replicas is the repair
    interval.  Everything is deterministic in the config seed and the
    engine's seeds. *)

type config = {
  devices : int;  (** devices sampled from the delay space's nodes *)
  zones : int;  (** failure zones, assigned round-robin *)
  part_power : int;
  replicas : int;
  objects : int;
  zipf_s : float;  (** object popularity skew *)
  reads : int;  (** reads spread evenly over [duration] *)
  duration : float;  (** seconds of simulated time *)
  repair_interval : float;  (** seconds between repair passes; <= 0 = off *)
  failure_penalty_ms : float;  (** per dead-replica attempt (timeout) *)
  seed : int;
}

val default_config : config
(** 24 devices in 4 zones, part_power 6, 3 replicas, 256 objects at
    s = 0.9, 600 reads over 120 s, 10 s repair, 3000 ms penalty,
    seed 7. *)

val validate_config : string -> config -> unit
(** Raises [Invalid_argument] naming the offending field: [devices]
    or [objects] non-positive, [replicas] non-positive or exceeding
    [devices], [zones] non-positive, [part_power] outside [0, 20],
    [zipf_s] negative or non-finite, [reads] negative, [duration]
    non-positive, [repair_interval] non-finite, [failure_penalty_ms]
    negative; and [reads] or
    [duration] when reads plus repair passes times devices exceed
    {!Tivaware_eventsim.Sim.work_cap}. *)

type t

val create :
  ?arbiter:Tivaware_measure.Arbiter.t ->
  config:config ->
  policy:Tivaware_tiv.Selection.t ->
  backend:Tivaware_backend.Delay_backend.t ->
  engine:Tivaware_measure.Engine.t ->
  unit ->
  t
(** Samples devices, builds the ring, and registers the scenario's
    instruments on the engine's registry: counters [store.reads],
    [store.read_failures], [store.skipped], [store.dead_attempts],
    [store.handoff_reads], the repair family labelled [plane=store]
    ([repair.checked], [repair.rehomed], [repair.restored],
    [repair.denied]), histogram [store.read_ms], and the ["store"] /
    ["store_repair"] probe planes
    ({!Tivaware_measure.Engine.register_plane}).  The engine must be
    over [backend] (ground truth reads it); [arbiter] gates the repair
    plane's probes under the ["store_repair"] share.  Raises
    [Invalid_argument] as {!validate_config} does, counting also the
    churn and route-flap transitions the engine replays up to
    [duration] ({!Tivaware_measure.Engine.clock_work} over every link
    to a device), which are named [duration]. *)

val ring : t -> Ring.t

(** One GET, as {!run}'s [trace] sees it.  Service delay is the true
    backend delay plus the dynamics plane's current extra delay on the
    chosen link, so stale estimates mispredict exactly when routes
    shift. *)
type read_outcome = {
  obj : int;
  part : int;
  client : int;
  device : int option;  (** serving device; [None] = read failed *)
  latency_ms : float;  (** dead-attempt penalties + service delay *)
  probes : int;  (** selection probes across attempts *)
  attempts : int;  (** devices tried, dead ones included *)
  handoff : bool;  (** the handoff walk was needed *)
}

(** One repair sweep, as {!run}'s [repair_trace] sees it: every
    device's liveness is probed (plane ["store_repair"]) from its
    nearest believed-up peer by id; transitions re-home or restore the
    serving table through the ring's handoff order. *)
type pass_outcome = {
  pass : int;
  time : float;
  checked : int;
  rehomed : int;  (** partitions moved off newly-believed-dead devices *)
  restored : int;  (** partitions returned to revived primaries *)
  denied : int;  (** liveness probes refused by the arbiter *)
}

type repair_totals = {
  passes : int;
  total_checked : int;  (** [repair.checked{plane=store}] *)
  total_rehomed : int;  (** [repair.rehomed{plane=store}] *)
  total_restored : int;  (** [repair.restored{plane=store}] *)
  total_denied : int;  (** [repair.denied{plane=store}] *)
}

type result = {
  issued : int;  (** [store.reads] *)
  completed : int;  (** [store.reads] - [store.read_failures] *)
  failed : int;  (** [store.read_failures] *)
  skipped : int;  (** [store.skipped]: reads whose client was down *)
  handoffs : int;  (** [store.handoff_reads]: reads that walked the handoff order *)
  dead_attempts : int;  (** [store.dead_attempts] *)
  policy_probes : int;  (** selection probes, summed over the run's reads *)
  latencies : float array;  (** completed reads, in event order *)
  repair : repair_totals;
}
(** A view of the engine's registry: each counted field reads the
    series named beside it once, after the run.  Those series are
    engine-wide, so the view assumes one scenario per engine. *)

val run :
  ?trace:(read_outcome -> unit) ->
  ?repair_trace:(pass_outcome -> unit) ->
  t ->
  result
(** Drives the scenario: [reads] GETs at evenly spaced times over
    [duration] (Zipf objects, seeded round-robin clients; a read whose
    client is down is skipped) and repair passes every
    [repair_interval] seconds, the engine clock following each event
    and ending at [duration].  Callbacks observe each event in order.
    The reads walk a cursor beside the repair timer, in the order a
    simulator heap (time, then scheduling order) pops them when every
    read is scheduled before the run and each pass when the previous
    one fires: at equal times the first pass runs before the read, and
    every later pass after it. *)

val run_ordered :
  ?trace:(read_outcome -> unit) ->
  ?repair_trace:(pass_outcome -> unit) ->
  t ->
  order:(read:(int -> unit) -> pass:(float -> unit) -> unit) ->
  result
(** {!run} with its events in the order [order] calls them: [read i] is
    the [i]th read (at [duration * (i + 1) / (reads + 1)]), [pass time]
    a repair pass at [time].  Raises [Invalid_argument] naming
    [run_ordered] when a read comes out of index order (each of
    [0 .. reads - 1] at most once, ascending) or an event's time
    precedes the previous one's.  {!run} is
    [run_ordered] with its own cursor order; the event-order property
    gives it the order a simulator heap pops, to check that cursor, and
    the [store/repair-pass] microbenchmark one pass per call. *)
