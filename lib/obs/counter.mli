(** A monotone counter.

    Holds a float so time totals (charged milliseconds) and event
    counts share one primitive; {!value} is integral whenever only
    {!incr} was used. *)

type t

val create : unit -> t
(** Starts at 0. *)

val incr : t -> unit
(** Add one. *)

val add : t -> float -> unit
(** Add a non-negative finite amount.  Raises [Invalid_argument] on a
    negative or non-finite delta — counters only go up. *)

val value : t -> float

val count : t -> int
(** {!value} truncated to an int: the reading of an event counter that
    only {!incr} (or integral {!add}s) moved. *)
