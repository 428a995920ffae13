(** The query workload: what the service harness serves, drawn
    deterministically per query.

    Every query [qid] owns a private {!Tivaware_util.Rng.t} seeded from
    [(seed, qid)] by a SplitMix64 finalizer, so its arrival gap, kind
    and node parameters are a pure function of the pair — independent
    of which shard executes it and of how many shards exist.  That is
    the partition-independence half of the harness's determinism
    contract ({!Shard} supplies the other half: identical per-shard
    worlds).

    Fixed draw order from the query's generator: arrival gap first
    (only when an open-loop [rate] is set), then the kind, then
    whatever node parameters the kind's executor needs. *)

type kind =
  | Closest  (** a Meridian closest-node query through the engine *)
  | Dht_lookup  (** a Chord lookup over the delay backend *)
  | Multicast_refresh  (** one parent-refresh pass over the tree *)

val kinds : kind array
(** All kinds, in {!kind_index} order. *)

val kind_label : kind -> string
(** ["closest"], ["dht"], ["multicast"] — the [kind] label value on
    every [service.*] series. *)

val kind_index : kind -> int
(** Position in {!kinds} (for per-kind instrument arrays). *)

(** Relative weights of the three kinds in the query stream. *)
type mix = { closest : int; dht : int; multicast : int }

val default_mix : mix
(** [{closest = 6; dht = 6; multicast = 1}] — refreshes are whole-tree
    passes, far heavier than a single query, so they ride along at a
    low rate as a background maintenance load. *)

val validate_mix : mix -> unit
(** Raises [Invalid_argument] on a negative weight or an all-zero mix. *)

val draws :
  seed:int -> qid:int -> rate:float option -> mix -> float * kind * Tivaware_util.Rng.t
(** [(gap, kind, rng)] for one query: the exponential inter-arrival gap
    in seconds ([0.] when [rate] is [None] — closed loop), the drawn
    kind, and the generator positioned for the kind's node-parameter
    draws. *)
