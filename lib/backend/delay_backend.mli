(** Delay-plane backends: the delay space as a query service.

    The original reproduction materializes every delay space as a dense
    upper-triangular {!Tivaware_delay_space.Matrix.t} — O(N²) floats,
    which caps experiments at toy scale.  The IDMS line of work
    ("Internet Delay Matrix Service") inverts the architecture: a
    backend {e answers delay queries on demand}, and only the model
    needed to answer them is kept resident.  This module provides that
    abstraction with three implementations:

    - {b Dense} — wraps an existing matrix.  Queries are [Matrix.get];
      {!oracle} returns the historical [Oracle.of_matrix], so every
      existing dense pipeline (and its golden trace) is bit-identical.
    - {b Lazy} — synthesizes each queried pair's delay on demand from a
      DS² {!Tivaware_topology.Synthesizer.model}.  Per-pair
      determinism comes from hashing [(seed, i, j)] into a private
      SplitMix64 stream, so the delay for a pair is independent of
      query order and never needs to be stored — resident state is the
      O(clusters²) model, the O(N) bucket assignment, and an optional
      bounded LRU memo of materialized pairs.
    - {b Sparse} — a hash table of explicitly [set] edges over an
      optional base backend (absent pairs fall through; with no base
      they are [nan]).  For golden fixtures, repairs and overrides.

    All backends answer [0.] on the diagonal and [nan] for
    unmeasurable pairs, matching the matrix contract. *)

type t

(** {2 Constructors} *)

val dense : Tivaware_delay_space.Matrix.t -> t

val lazy_synth :
  ?jitter:float ->
  ?memo:int ->
  seed:int ->
  size:int ->
  Tivaware_topology.Synthesizer.model ->
  t
(** [lazy_synth ~seed ~size model] is a [size]-node delay space drawn
    lazily from [model].  [jitter] is the per-draw smoothing factor
    (default 0.05, as {!Tivaware_topology.Synthesizer.synthesize}).
    [memo] bounds an optional LRU cache of materialized pairs (entries;
    omitted = recompute every query — still deterministic).  The
    cluster assignment is fixed up front from [seed] (O(N) ints);
    each pair's delay is then a pure function of [(seed, i, j)].
    Raises [Invalid_argument] on [size < 2], jitter outside [0, 1) or
    [memo < 1]. *)

val sparse : ?base:t -> size:int -> unit -> t
(** Explicit-edge backend.  Queries hit the edge table first, then
    [base] (when given; sizes must agree), else [nan]. *)

val of_fn : size:int -> (int -> int -> float) -> t
(** Wraps an arbitrary symmetric delay function ([0.] diagonal, [nan]
    unmeasurable), e.g. to adapt a function-backed oracle. *)

(** {2 Queries} *)

val size : t -> int

val query : t -> int -> int -> float
(** True delay in ms between two nodes; [0.] on the diagonal, [nan]
    when unmeasurable.  Raises [Invalid_argument] out of range. *)

val set : t -> int -> int -> float -> unit
(** Sparse backends only ([Invalid_argument] otherwise): sets the
    delay for a pair ([nan] removes the override so the base shows
    through again). *)

val neighbors_sampled :
  t -> Tivaware_util.Rng.t -> int -> k:int -> (int * float) array
(** [neighbors_sampled t rng i ~k]: [k] distinct nodes sampled
    uniformly (excluding [i]; capped at [size - 1]) with their measured
    delays, unmeasurable pairs dropped.  The bounded replacement for
    [Matrix.neighbors]' O(N) row scan — a lazy space materializes only
    the sampled pairs. *)

val nearest_sampled :
  t -> Tivaware_util.Rng.t -> int -> k:int -> (int * float) option
(** Closest node among a [k]-sample (the bounded replacement for
    [Matrix.nearest_neighbor]); [None] when every sampled pair is
    unmeasurable. *)

(** {2 Introspection} *)

val kind_name : t -> string
(** ["dense"], ["lazy"], ["sparse"] or ["fn"] — the [backend] label on
    every {!attach_obs} series. *)

val matrix : t -> Tivaware_delay_space.Matrix.t option
(** The backing matrix of a dense backend. *)

val labels : t -> int array option
(** Synthetic cluster labels of a lazy backend ([-1] = noise), as
    {!Tivaware_topology.Synthesizer.synthesize_with_clusters}. *)

val materialized : t -> int
(** Pairs currently held resident: all of them for dense, the live
    memo entries for lazy, the explicit edges for sparse, 0 for fn. *)

val densify : t -> Tivaware_delay_space.Matrix.t
(** Materializes the full matrix by querying every pair — O(N²); the
    bridge back to dense-only analyses at small N. *)

(** {2 Measurement plane} *)

type Tivaware_measure.Oracle.ext += Backend of t
(** How an oracle built by {!oracle} remembers its backend. *)

val oracle : t -> Tivaware_measure.Oracle.t
(** Dense backends return [Oracle.of_matrix] (bit-identical to the
    historical path, backing matrix included); every other kind returns
    a function-backed oracle tagged with {!Backend} so {!of_engine} can
    recover it. *)

val engine : ?config:Tivaware_measure.Engine.config -> t -> Tivaware_measure.Engine.t
(** [Engine.create] over {!oracle}. *)

val of_engine : Tivaware_measure.Engine.t -> t
(** Recovers the backend the engine's oracle was built from: the
    {!Backend} tag if present, else a dense wrap of its matrix, else an
    [of_fn] wrap of [Oracle.query].  Always succeeds — how evaluation
    code reads ground truth, and ({!matrix} of the result) the dense
    matrix when there is one. *)

(** {2 Observability} *)

val attach_obs : t -> Tivaware_obs.Registry.t -> unit
(** Registers and wires this backend's instruments, all labelled
    [backend=<kind_name>]: counters [backend.queries],
    [backend.synthesized] (fresh lazy draws), [backend.memo_hits],
    [backend.memo_evictions]; gauge [backend.materialized]; histogram
    [backend.query_draws] — per-query cost in RNG draws (0 = free or
    memoized lookup, 1 = missing-pair trial, 3 = realized synthesis),
    kept in deterministic units so metrics fixtures stay stable. *)
