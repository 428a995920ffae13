(** TTL'd RTT cache (the IDMS-style "delay service" mode), with
    optional capacity-bounded LRU eviction.

    A delay {e service} amortizes probes by answering repeat lookups
    from a cache at the price of staleness; on-demand probing pays for
    every lookup but is never stale.  Entries are keyed on the
    unordered pair and carry the logical time they were measured; a
    lookup at [now] past the TTL evicts the entry and reports it
    {!Stale} so the caller re-probes.

    With a [capacity], the cache additionally models a bounded service:
    storing a new pair beyond capacity evicts the least-recently-used
    entry (hits and refreshes both count as use).  All operations are
    O(1) — the recency order is an intrusive doubly-linked list. *)

type t

val create : ?capacity:int -> ttl:float -> unit -> t
(** [ttl] in logical seconds; must be positive.  [capacity] (entries)
    must be >= 1 when given; [None] = unbounded.  Raises
    [Invalid_argument] with a descriptive message otherwise. *)

type lookup =
  | Hit of float  (** fresh entry (refreshes its recency) *)
  | Stale  (** entry existed but expired; evicted *)
  | Miss  (** no entry *)

val find : t -> now:float -> int -> int -> lookup

val code_hit : int
val code_stale : int

val find_code : t -> now:float -> into:float array -> int -> int -> int
(** Non-allocating {!find} for the probe hot path: returns
    {!code_hit}, {!code_stale}, or a third code on a miss; on a hit the cached
    value is stored (unboxed) in [into.(0)] ([into] must have length
    >= 1, and is untouched otherwise).  Side effects match {!find}
    exactly — a hit refreshes recency, a stale entry is evicted. *)

val store : t -> now:float -> int -> int -> float -> int
(** Records a measurement at [now]; returns the number of entries
    evicted to respect the capacity bound (0 or 1).  [nan] values are
    not cached (a failed probe is not an answer a service would
    retain).  Re-storing a cached pair refreshes it in place and never
    evicts. *)

val length : t -> int
(** Live entries, expired ones included until touched. *)
