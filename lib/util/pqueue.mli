(** Mutable binary min-heap keyed by float priorities.

    Used by Dijkstra shortest paths, the churn clock and the
    discrete-event simulator's pending-event queue.  Ties are broken by
    insertion rank, so event processing is deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q priority v] inserts [v] under the next insertion rank. *)

val reserve : 'a t -> int -> int
(** [reserve q n] takes the next [n] ranks (not negative) and returns the first. *)

val push_reserved : 'a t -> seq:int -> float -> 'a -> unit
(** Inserts under a reserved rank: it ties as if pushed at the reservation. *)

val min_prio : 'a t -> float
(** The minimum priority, [infinity] when the queue is empty; it
    allocates nothing. *)

val pop : 'a t -> 'a
(** Removes the minimum element (lowest rank among equal priorities)
    and returns its value without allocating; [Invalid_argument] when
    empty. *)
