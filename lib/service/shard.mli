(** One shard of the query-serving harness: a private world plus the
    executor for its partition of the query stream.

    Each shard owns a full stack — delay backend, probe engine (with
    its own {!Tivaware_obs.Registry}), Meridian overlay, Chord overlay
    and multicast tree — built deterministically from the spec seed, so
    every shard of a run inhabits an identical world and nothing is
    shared across domains (the one-registry-per-domain rule).

    Queries are partitioned statically: shard [d] of [N] executes the
    qids with [qid mod N = d].  Combined with {!Workload}'s per-query
    generators, a query's parameters and its world are the same
    whichever shard runs it; only engine-local state (cache, budgets,
    clock, the mutable tree) differs with [N] — which is why the
    determinism contract is per-domain-count: [--domains 1] reproduces
    the sequential driver exactly, and any scheduling of [--domains N]
    reproduces any other.

    Recorded into the shard's registry, merged later by
    {!Tivaware_obs.Merge}: [service.queries{kind=...}] and
    [service.failures{kind=...}] counters, [service.latency_ms{kind=...}]
    histograms (closest/refresh latency = charged probe milliseconds;
    DHT latency = route delay), the [service.hops] histogram and the
    [service.switches] counter. *)

type spec = {
  seed : int;  (** world + workload master seed *)
  engine_config : Tivaware_measure.Engine.config;
  make_backend : unit -> Tivaware_backend.Delay_backend.t;
      (** factory, not a value: a backend (lazy memo, sparse table) is
          mutable, so each shard must materialize its own instance,
          inside its own domain *)
  meridian_count : int;  (** Meridian participants sampled from the space *)
  candidate_budget : int option;
      (** ring-construction discovery budget (lazy-space friendly) *)
  beta : float;  (** Meridian acceptance/termination threshold *)
  rate : float option;
      (** open-loop Poisson arrival rate in queries/second; [None] =
          closed loop (no arrival clock, back-to-back queries) *)
  mix : Workload.mix;
  queries : int;  (** total stream length across all shards *)
}

type t

val create : spec -> t
(** Build the shard's world.  Raises [Invalid_argument] on a bad spec
    (empty mix, negative queries, non-positive rate,
    [meridian_count < 1] or exceeding the backend size) and passes
    through engine-config validation errors. *)

val run_partition : t -> domain:int -> domains:int -> unit
(** Execute this shard's residue class of the stream.  Under an
    open-loop [rate], the engine clock is slaved to each query's global
    arrival time ({!Tivaware_measure.Engine.advance_to}), so caches age
    and budgets refill against wall-modelled arrivals even though
    shards run independently. *)

val obs : t -> Tivaware_obs.Registry.t
(** The shard engine's registry ([service.*] plus the engine's own
    [measure.*]/[backend.*] series). *)

val clock : t -> float
(** Engine clock after (or during) the run, in seconds. *)


val latency_edges : float array
(** Bucket edges of [service.latency_ms] (milliseconds). *)

val hops_edges : float array
(** Bucket edges of [service.hops]. *)
