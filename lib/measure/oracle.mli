(** The ground-truth delay source behind the measurement plane.

    Every probe ultimately resolves against an oracle: a total function
    from a node pair to the true round-trip delay in milliseconds
    ([nan] when the pair is unmeasurable).  The standard oracle is a
    {!Tivaware_delay_space.Matrix.t}; a function-backed oracle supports
    synthetic or streamed delay sources without materializing a matrix.

    The oracle itself is free, instantaneous and lossless — cost,
    budgets, noise and failures are the {!Engine}'s job.  Code that
    wants the idealized model of the original reproduction can keep
    calling [Matrix.get]; code routed through the engine pays for every
    lookup. *)

type t

type ext = ..
(** Open extension point for richer delay sources.  A library layered
    above the measurement plane (e.g. [Tivaware_backend]) adds its own
    constructor, attaches it via {!of_fn}'s [?ext], and recovers the
    full source from an engine's oracle with {!ext} — without this
    module depending on it. *)

val of_matrix : Tivaware_delay_space.Matrix.t -> t
(** Oracle over a delay matrix.  {!matrix} recovers it. *)

val of_fn : ?ext:ext -> size:int -> (int -> int -> float) -> t
(** [of_fn ~size f] wraps an arbitrary symmetric delay function.  [f]
    must return [0.] on the diagonal and [nan] for unmeasurable
    pairs.  [?ext] optionally tags the oracle with the richer source it
    was derived from (see {!type:ext}). *)

val size : t -> int
(** Number of nodes the oracle answers for. *)

val query : t -> int -> int -> float
(** True delay between two nodes; [nan] when unmeasurable. *)

val matrix : t -> Tivaware_delay_space.Matrix.t option
(** The backing matrix, when the oracle is matrix-backed. *)

val ext : t -> ext option
(** The extension tag attached at construction, if any. *)
