(** Discrete-event simulation engine.

    A simulator owns a virtual clock and a pending-event heap.  Events
    are closures scheduled at absolute or relative virtual times; running
    the simulator pops events in timestamp order (FIFO among equal
    timestamps) and executes them, which may schedule further events.

    The engine is deliberately minimal: Meridian's online recursive query
    only needs message-at-a-delay semantics, and keeping the core small
    makes its behaviour easy to audit in tests. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time (seconds by convention; milliseconds also work,
    the engine is unit-agnostic). *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t delay f] = [schedule_at t (now t +. delay)]. *)

val schedule_every : t -> ?start:float -> every:float -> (unit -> bool) -> unit
(** [schedule_every t ~every f] runs [f] at [now + every], then again
    [every] later for as long as [f] returns [true] — the recurring
    helper background protocols (e.g. Chord stabilization) build their
    maintenance schedule from.  [start] overrides the delay before the
    {e first} firing only (staggering many periodic tasks keeps them
    from all landing on the same timestamp).  Raises [Invalid_argument]
    on a non-positive period or a negative start. *)

val on_advance : t -> (float -> unit) -> unit
(** [on_advance t f] registers [f] to be called with the new virtual
    time whenever the clock moves (before the due event runs).
    Observers fire in registration order and must not schedule or run
    events themselves.  Used to slave external clocks — e.g. a
    measurement engine's budget/cache clock — to the simulator. *)

val run : ?until:float -> t -> unit
(** Executes events in order until the queue drains or the next event's
    timestamp exceeds [until].  The clock ends at the last executed
    event's time, or at [until] when [until] is finite and past it (the
    observers see that move).  An infinite [until] is never reached:
    the clock stays at the last executed event. *)

(** {2 Bounded runs} *)

val work_cap : float
(** [1e7]: the most events and probes one scenario run may schedule.
    Scenario configs whose worst-case work exceeds it are rejected
    before anything is built, so every accepted run terminates in
    bounded time and memory. *)

val check_work : string -> (string * float) list -> unit
(** [check_work ctx terms] sums the upper bounds [terms], each paired
    with the config field that drives it, and raises [Invalid_argument]
    naming the field of the largest term when the sum exceeds
    {!work_cap} (or is [nan]). *)
