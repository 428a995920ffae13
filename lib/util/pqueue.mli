(** Mutable binary min-heap keyed by float priorities.

    Used by Dijkstra shortest paths and by the discrete-event simulator's
    pending-event queue.  Ties are broken by insertion order so event
    processing is deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q priority v] inserts [v]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element; earliest-inserted
    wins ties. *)

val min_prio : 'a t -> float
(** The minimum priority, [infinity] when the queue is empty; it
    allocates nothing. *)
